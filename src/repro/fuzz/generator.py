"""Seeded, grammar-based DML program generation.

The generator targets the real grammar (``docs/language.md``) with
shape-aware typing: it tracks the shape of every live variable so that
every emitted program compiles and runs under every configuration of the
lattice.  Programs are built from a tiny statement IR (:class:`Raw` lines
and :class:`Block` nodes) that the minimizer can manipulate structurally.

Design constraints baked into the grammar:

* ``rand``/``sample`` always carry an explicit literal seed.  Unseeded
  data generation draws system seeds in program order, and multi-level
  reuse legitimately skips whole blocks — which would shift the draw
  sequence and produce *expected* divergence.  Determinism across configs
  is the invariant under test, so non-determinism is excluded by
  construction.
* Numerics stay bounded: division and logarithm are guarded
  (``/(abs(x)+1)``, ``log(abs(x)+1.5)``), exponentiation uses small
  integer powers, and loop accumulators contract (``acc*0.5 + M``), so
  tolerance-based comparison of partial-reuse configs stays meaningful.
* ``eigen``/``svd`` vector outputs never flow downstream — eigenvectors
  of near-degenerate spectra amplify 1-ulp input differences — but the
  (stable) value vectors do, and the vector outputs still exercise the
  multi-return reuse machinery.
* Branches assign the same variables with the same shapes on all paths;
  loop bodies only redefine variables shape-preservingly; parfor bodies
  update disjoint column slices.  The symbol environment is therefore
  identical no matter which path executes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

SCALAR = "scalar"

#: dimension pool generated programs draw from (kept small so matrices
#: stay cheap and shape coincidences — e.g. square matrices — are common)
DIM_POOL = (1, 2, 3, 4, 5, 6, 8)


@dataclass
class Raw:
    """One statement line (no trailing newline)."""

    text: str


@dataclass
class Block:
    """A control-flow construct: ``header { body } [tail { tail_body }]``."""

    header: str
    body: list = field(default_factory=list)
    tail: str | None = None  # e.g. "else"
    tail_body: list = field(default_factory=list)


def render(nodes: list, indent: int = 0) -> str:
    """Render an IR node list to DML source."""
    pad = "  " * indent
    lines: list[str] = []
    for node in nodes:
        if isinstance(node, Raw):
            lines.append(pad + node.text)
        else:
            lines.append(pad + node.header + " {")
            lines.append(render(node.body, indent + 1))
            if node.tail is not None:
                lines.append(pad + "} " + node.tail + " {")
                lines.append(render(node.tail_body, indent + 1))
            lines.append(pad + "}")
    return "\n".join(line for line in lines if line != "")


@dataclass
class GeneratedProgram:
    """A generated program: statement IR plus its comparable outputs."""

    nodes: list
    outputs: list[str]
    seed: int

    @property
    def source(self) -> str:
        return render(self.nodes) + "\n"


class ProgramGenerator:
    """Generates one shape-correct DML program per :meth:`generate` call."""

    def __init__(self, seed: int, size: int = 10):
        self.rng = random.Random(seed)
        self.seed = seed
        self.size = size

    # ------------------------------------------------------------------
    # naming / environment helpers
    # ------------------------------------------------------------------

    def _reset(self) -> None:
        self.env: dict[str, object] = {}  # name -> (rows, cols) | SCALAR
        self.funcs: list[tuple[str, list, list]] = []  # (name, params, outs)
        self._counter = 0
        self._seed_counter = 0
        self.dims = sorted(self.rng.sample(DIM_POOL, 3))

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _next_seed(self) -> int:
        """An explicit literal seed for rand/sample (never a system seed)."""
        self._seed_counter += 1
        return (self.seed * 7919 + self._seed_counter * 104729) % 1_000_000

    def _dim(self) -> int:
        return self.rng.choice(self.dims)

    def _matrices(self, env: dict) -> list[str]:
        return [n for n, s in env.items() if s != SCALAR]

    def _scalars(self, env: dict) -> list[str]:
        return [n for n, s in env.items() if s == SCALAR]

    def _matrix_of(self, env: dict, shape) -> str | None:
        names = [n for n, s in env.items() if s == shape]
        return self.rng.choice(names) if names else None

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _rand_expr(self, rows: int, cols: int) -> str:
        lo = round(self.rng.uniform(-1.5, 0.0), 2)
        hi = round(self.rng.uniform(0.5, 2.0), 2)
        return (f"rand(rows={rows}, cols={cols}, min={lo}, max={hi}, "
                f"seed={self._next_seed()})")

    def matrix_expr(self, env: dict, shape: tuple, depth: int = 2) -> str:
        """An expression of the given (rows, cols) shape."""
        rows, cols = shape
        existing = self._matrix_of(env, shape)
        if depth <= 0 or (existing and self.rng.random() < 0.35):
            if existing and self.rng.random() < 0.75:
                return existing
            return self._rand_expr(rows, cols)
        pick = self.rng.random()
        if pick < 0.30:  # elementwise binary
            op = self.rng.choice(["+", "-", "*", "min", "max", "/"])
            a = self.matrix_expr(env, shape, depth - 1)
            b = self.matrix_expr(env, shape, depth - 1)
            if op in ("min", "max"):
                return f"{op}({a}, {b})"
            if op == "/":
                return f"({a} / (abs({b}) + 1.0))"
            return f"({a} {op} {b})"
        if pick < 0.45:  # matrix-scalar
            op = self.rng.choice(["+", "-", "*"])
            a = self.matrix_expr(env, shape, depth - 1)
            s = self.scalar_expr(env, depth - 1)
            return f"({a} {op} {s})"
        if pick < 0.60:  # unary
            fn = self.rng.choice(["abs", "round", "floor", "ceiling", "sign",
                                  "sigmoid", "sqrt_abs", "log_abs", "exp"])
            a = self.matrix_expr(env, shape, depth - 1)
            if fn == "sqrt_abs":
                return f"sqrt(abs({a}))"
            if fn == "log_abs":
                return f"log(abs({a}) + 1.5)"
            if fn == "exp":
                return f"exp(min({a}, 2.0))"
            return f"{fn}({a})"
        if pick < 0.72:  # matrix multiply through an inner dimension
            k = self._dim()
            a = self.matrix_expr(env, (rows, k), depth - 1)
            b = self.matrix_expr(env, (k, cols), depth - 1)
            return f"({a} %*% {b})"
        if pick < 0.80:  # transpose
            return f"t({self.matrix_expr(env, (cols, rows), depth - 1)})"
        if pick < 0.90 and cols >= 2:  # cbind split
            split = self.rng.randrange(1, cols)
            a = self.matrix_expr(env, (rows, split), depth - 1)
            b = self.matrix_expr(env, (rows, cols - split), depth - 1)
            return f"cbind({a}, {b})"
        if rows >= 2:  # rbind split
            split = self.rng.randrange(1, rows)
            a = self.matrix_expr(env, (split, cols), depth - 1)
            b = self.matrix_expr(env, (rows - split, cols), depth - 1)
            return f"rbind({a}, {b})"
        return self._rand_expr(rows, cols)

    def scalar_expr(self, env: dict, depth: int = 2) -> str:
        scalars = self._scalars(env)
        if depth <= 0 or self.rng.random() < 0.4:
            if scalars and self.rng.random() < 0.6:
                return self.rng.choice(scalars)
            return str(round(self.rng.uniform(-2.0, 2.5), 2))
        pick = self.rng.random()
        matrices = self._matrices(env)
        if pick < 0.45 and matrices:  # full aggregate
            fn = self.rng.choice(["sum", "mean", "min", "max"])
            return f"{fn}({self.rng.choice(matrices)})"
        if pick < 0.6 and matrices:  # scalar cell read
            name = self.rng.choice(matrices)
            r, c = env[name]
            i = self.rng.randrange(1, r + 1)
            j = self.rng.randrange(1, c + 1)
            return f"as.scalar({name}[{i}, {j}])"
        op = self.rng.choice(["+", "-", "*"])
        a = self.scalar_expr(env, depth - 1)
        b = self.scalar_expr(env, depth - 1)
        return f"({a} {op} {b})"

    def bool_expr(self, env: dict) -> str:
        a = self.scalar_expr(env, 1)
        op = self.rng.choice([">", "<", ">=", "<=", "==", "!="])
        b = str(round(self.rng.uniform(-1.0, 1.0), 2))
        return f"{a} {op} {b}"

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _stmt_assign_matrix(self, env: dict, body: list) -> None:
        shape = (self._dim(), self._dim())
        name = self._fresh("m")
        body.append(Raw(f"{name} = {self.matrix_expr(env, shape)};"))
        env[name] = shape

    def _stmt_assign_scalar(self, env: dict, body: list) -> None:
        name = self._fresh("s")
        body.append(Raw(f"{name} = {self.scalar_expr(env)};"))
        env[name] = SCALAR

    def _stmt_tsmm(self, env: dict, body: list) -> None:
        """``t(X) %*% X`` — the pattern the tsmm rewrite and the partial
        compensation plans (R4/R5) key on."""
        candidates = self._matrices(env)
        if not candidates:
            return self._stmt_assign_matrix(env, body)
        x = self.rng.choice(candidates)
        _, c = env[x]
        name = self._fresh("g")
        body.append(Raw(f"{name} = t({x}) %*% {x};"))
        env[name] = (c, c)

    def _stmt_aggregate(self, env: dict, body: list) -> None:
        candidates = self._matrices(env)
        if not candidates:
            return self._stmt_assign_scalar(env, body)
        x = self.rng.choice(candidates)
        r, c = env[x]
        fn = self.rng.choice(["colSums", "colMeans", "rowSums", "rowMeans",
                              "cumsum"])
        name = self._fresh("a")
        body.append(Raw(f"{name} = {fn}({x});"))
        env[name] = {"colSums": (1, c), "colMeans": (1, c),
                     "rowSums": (r, 1), "rowMeans": (r, 1),
                     "cumsum": (r, c)}[fn]

    def _stmt_index_read(self, env: dict, body: list) -> None:
        candidates = self._matrices(env)
        if not candidates:
            return self._stmt_assign_matrix(env, body)
        x = self.rng.choice(candidates)
        r, c = env[x]
        r1 = self.rng.randrange(1, r + 1)
        r2 = self.rng.randrange(r1, r + 1)
        c1 = self.rng.randrange(1, c + 1)
        c2 = self.rng.randrange(c1, c + 1)
        name = self._fresh("x")
        body.append(Raw(f"{name} = {x}[{r1}:{r2}, {c1}:{c2}];"))
        env[name] = (r2 - r1 + 1, c2 - c1 + 1)

    def _stmt_index_write(self, env: dict, body: list) -> None:
        candidates = self._matrices(env)
        if not candidates:
            return self._stmt_assign_matrix(env, body)
        x = self.rng.choice(candidates)
        r, c = env[x]
        r1 = self.rng.randrange(1, r + 1)
        r2 = self.rng.randrange(r1, r + 1)
        c1 = self.rng.randrange(1, c + 1)
        c2 = self.rng.randrange(c1, c + 1)
        sub = self.matrix_expr(env, (r2 - r1 + 1, c2 - c1 + 1), 1)
        body.append(Raw(f"{x}[{r1}:{r2}, {c1}:{c2}] = {sub};"))

    def _stmt_seq_table(self, env: dict, body: list) -> None:
        n = self._dim()
        name = self._fresh("q")
        body.append(Raw(f"{name} = seq(1, {n});"))
        env[name] = (n, 1)
        if self.rng.random() < 0.5:
            k = self.rng.randrange(2, 6)
            size = self.rng.randrange(2, 7)
            s1 = self._next_seed()
            s2 = self._next_seed()
            sname = self._fresh("s")
            body.append(Raw(
                f"{sname} = sum(table(sample({k}, {size}, TRUE, "
                f"seed={s1}), sample({k}, {size}, TRUE, seed={s2})));"))
            env[sname] = SCALAR

    def _stmt_solve(self, env: dict, body: list) -> None:
        """Well-conditioned linear algebra: ``t(X)X + 2.5I`` is PD."""
        n = self._dim()
        x = self.matrix_expr(env, (self._dim(), n), 1)
        g = self._fresh("g")
        body.append(Raw(
            f"{g} = t({x}) %*% {x} + diag(matrix(2.5, {n}, 1));"))
        env[g] = (n, n)
        name = self._fresh("b")
        if self.rng.random() < 0.5:
            rhs = self.matrix_expr(env, (n, 1), 1)
            body.append(Raw(f"{name} = solve({g}, {rhs});"))
            env[name] = (n, 1)
        else:
            body.append(Raw(f"{name} = inv({g});"))
            env[name] = (n, n)

    def _stmt_multiassign(self, env: dict, body: list) -> None:
        """``[w, V] = eigen(S)`` on a PD matrix.

        Only the (numerically stable) eigenvalue vector joins the
        environment; the vectors stay unused downstream.
        """
        n = self._dim()
        x = self.matrix_expr(env, (self._dim(), n), 1)
        g = self._fresh("g")
        body.append(Raw(
            f"{g} = t({x}) %*% {x} + diag(matrix(1.5, {n}, 1));"))
        env[g] = (n, n)
        w, v = self._fresh("w"), self._fresh("v")
        body.append(Raw(f"[{w}, {v}] = eigen({g});"))
        env[w] = (n, 1)

    def _stmt_print(self, env: dict, body: list) -> None:
        body.append(Raw(f'print("p" + {self.scalar_expr(env, 1)});'))

    def _stmt_compare(self, env: dict, body: list) -> None:
        """A scalar comparison over an elementwise chain, printed.  Fusion
        folds the chain into one template rooted in the comparison, whose
        result must stay a boolean (``TRUE``/``FALSE``) as unfused.  The
        boolean joins ``env``, so later arithmetic takes it as 0/1."""
        a, b = self.scalar_expr(env, 1), self.scalar_expr(env, 1)
        op = self.rng.choice(["+", "-", "*"])
        test = self.rng.choice([">", "<", ">=", "<=", "==", "!="])
        expr = f"({a} {op} {b}) {test} {round(self.rng.uniform(-1, 1), 2)}"
        if self.rng.random() < 0.3:
            expr = f"!({expr})"
        name = self._fresh("c")
        body.append(Raw(f"{name} = {expr};"))
        body.append(Raw(f"print({name});"))
        env[name] = SCALAR

    def _stmt_if(self, env: dict, body: list, depth: int) -> None:
        """Both branches assign the same targets with the same shapes."""
        shape = (self._dim(), self._dim())
        target = self._fresh("m")
        node = Block(f"if ({self.bool_expr(env)})", tail="else")
        then_env = dict(env)
        else_env = dict(env)
        for benv, bbody in ((then_env, node.body), (else_env, node.tail_body)):
            for _ in range(self.rng.randrange(0, 2)):
                self._statement(benv, bbody, depth + 1)
            bbody.append(Raw(f"{target} = {self.matrix_expr(benv, shape)};"))
        body.append(node)
        env[target] = shape

    def _stmt_for(self, env: dict, body: list, depth: int) -> None:
        """Loop bodies redefine existing variables shape-preservingly."""
        iters = self.rng.randrange(2, 5)
        var = self._fresh("i")
        keyword = "for"
        node = Block(f"{keyword} ({var} in 1:{iters})")
        loop_env = dict(env)
        loop_env[var] = SCALAR
        for name in self._redefinition_targets(env):
            shape = env[name]
            if shape == SCALAR:
                node.body.append(Raw(
                    f"{name} = {name} * 0.5 + {self.scalar_expr(loop_env, 1)};"
                ))
            else:
                node.body.append(Raw(
                    f"{name} = {name} * 0.5 + "
                    f"{self.matrix_expr(loop_env, shape, 1)};"))
        if not node.body:
            acc = self._fresh("s")
            env[acc] = SCALAR
            body.append(Raw(f"{acc} = 0.0;"))
            node.body.append(Raw(f"{acc} = {acc} + {var};"))
        body.append(node)

    def _stmt_while(self, env: dict, body: list, depth: int) -> None:
        counter = self._fresh("k")
        bound = self.rng.randrange(2, 4)
        body.append(Raw(f"{counter} = 0;"))
        env[counter] = SCALAR
        node = Block(f"while ({counter} < {bound})")
        for name in self._redefinition_targets(env, limit=1):
            shape = env[name]
            if shape == SCALAR and name != counter:
                node.body.append(Raw(f"{name} = {name} * 0.5 + 1.0;"))
            elif shape != SCALAR:
                node.body.append(Raw(
                    f"{name} = {name} * 0.5 + "
                    f"{self.matrix_expr(env, shape, 1)};"))
        node.body.append(Raw(f"{counter} = {counter} + 1;"))
        body.append(node)

    def _stmt_parfor(self, env: dict, body: list, depth: int) -> None:
        """Disjoint column updates — the supported parfor merge pattern."""
        sources = [n for n, s in env.items()
                   if s != SCALAR and s[1] >= 2]
        if not sources:
            return self._stmt_assign_matrix(env, body)
        src = self.rng.choice(sources)
        r, c = env[src]
        target = self._fresh("m")
        body.append(Raw(f"{target} = {src} * 1.0;"))
        env[target] = (r, c)
        var = self._fresh("i")
        node = Block(f"parfor ({var} in 1:{c})")
        node.body.append(Raw(
            f"{target}[, {var}] = {src}[, {var}] * 0.5 + {var};"))
        body.append(node)

    def _stmt_funcdef_and_call(self, env: dict, body: list) -> None:
        if len(self.funcs) < 2 and self.rng.random() < 0.6:
            self._gen_funcdef()
        if not self.funcs:
            return self._stmt_assign_matrix(env, body)
        name, params, outs = self.rng.choice(self.funcs)
        args = ", ".join(self.matrix_expr(env, shape, 1)
                         for _, shape in params)
        if len(outs) == 1 or self.rng.random() < 0.5:
            target = self._fresh("r")
            body.append(Raw(f"{target} = {name}({args});"))
            env[target] = outs[0][1]
        else:
            targets = [self._fresh("r") for _ in outs]
            body.append(Raw(
                f"[{', '.join(targets)}] = {name}({args});"))
            for t, (_, shape) in zip(targets, outs):
                env[t] = shape

    def _gen_funcdef(self) -> None:
        name = self._fresh("f")
        params = [(self._fresh("p"), (self._dim(), self._dim()))
                  for _ in range(self.rng.randrange(1, 3))]
        fenv = {p: shape for p, shape in params}
        fbody: list = []
        for _ in range(self.rng.randrange(1, 3)):
            self.rng.choice([self._stmt_assign_matrix,
                             self._stmt_assign_scalar,
                             self._stmt_aggregate])(fenv, fbody)
        outs = []
        for _ in range(self.rng.randrange(1, 3)):
            oname = self._fresh("o")
            shape = (self._dim(), self._dim())
            fbody.append(Raw(f"{oname} = {self.matrix_expr(fenv, shape)};"))
            outs.append((oname, shape))
        sig = ", ".join(p for p, _ in params)
        ret = ", ".join(o for o, _ in outs)
        node = Block(f"{name} = function({sig}) return ({ret})", fbody)
        self.funcs.append((name, params, outs))
        self._funcdefs.append(node)

    def _redefinition_targets(self, env: dict, limit: int = 2) -> list[str]:
        names = list(env)
        self.rng.shuffle(names)
        return names[:self.rng.randrange(1, limit + 1)]

    # ------------------------------------------------------------------
    # program assembly
    # ------------------------------------------------------------------

    def _statement(self, env: dict, body: list, depth: int) -> None:
        choices = [
            (self._stmt_assign_matrix, 20),
            (self._stmt_assign_scalar, 10),
            (self._stmt_tsmm, 8),
            (self._stmt_aggregate, 8),
            (self._stmt_index_read, 7),
            (self._stmt_index_write, 6),
            (self._stmt_seq_table, 4),
            (self._stmt_solve, 4),
            (self._stmt_multiassign, 4),
            (self._stmt_print, 4),
            (self._stmt_compare, 4),
            (self._stmt_funcdef_and_call, 6),
        ]
        blocks = [
            (self._stmt_if, 6),
            (self._stmt_for, 6),
            (self._stmt_while, 3),
            (self._stmt_parfor, 4),
        ]
        if depth < 2:
            choices += blocks
        total = sum(w for _, w in choices)
        roll = self.rng.uniform(0, total)
        for fn, weight in choices:
            roll -= weight
            if roll <= 0:
                break
        if fn in dict(blocks):
            fn(env, body, depth)
        else:
            fn(env, body)

    def generate(self) -> GeneratedProgram:
        self._reset()
        self._funcdefs: list = []
        env: dict = {}
        body: list = []
        # a few base matrices so early statements have material to work on
        for _ in range(self.rng.randrange(2, 4)):
            self._stmt_assign_matrix(env, body)
        for _ in range(self.size):
            self._statement(env, body, 0)
        outputs = sorted(env)
        nodes = self._funcdefs + body
        program = GeneratedProgram(nodes=nodes, outputs=outputs,
                                   seed=self.seed)
        return program


def generate_program(seed: int, size: int = 10) -> GeneratedProgram:
    """Convenience wrapper: one program for one seed."""
    return ProgramGenerator(seed, size=size).generate()
