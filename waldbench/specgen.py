"""Seeded generator of restriction spec files for the symbolic_stream workload.

Pure Python over ``fractions.Fraction``; it shares no code with waldrates, so
the verdict it plants is an independent oracle.  Every system is written in
deviation coordinates u = theta - theta_bar (no constant terms, so the null
holds) and then expanded around a nonzero integer null point.

Three kinds, in a fixed stratified schedule so that every seed yields the same
mix of sizes and kinds and only the coefficients change (about a third are
planted failures):

* ``hold_linear``: g_i = l_i + (sparse quadratic), with l_1..l_q linearly
  independent.  The lowest-degree Jacobian is a constant rank-q matrix, so
  FRALD-T holds with r = q.
* ``hold_quadratic``: homogeneous sparse quadratics whose Jacobian has exact
  rank q at a random rational point; every low row has degree 1, so that rank
  certifies FRALD-T with r = q.
* ``planted_fail``: g_i = l_i + (sparse quadratic) for i < q and g_q a
  quadratic form in l_1..l_{q-1}.  The gradient of g_q lies in the polynomial
  span of the first q-1 rows, so FRALD-T fails with r = q - 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# (p, q, kind) cells, cycled until the stream is full.  Cost rises steeply
# with q.  The q = 4 cell comes in every other cycle only, so the four q = 4
# systems of a 100-system stream set the tail and the 90th percentile falls
# among the many q = 3 systems; at the edge of a group it would jump with
# every seed.
_CELLS = (
    (3, 2, "hold_linear"), (3, 2, "planted_fail"), (4, 3, "planted_fail"),
    (3, 2, "hold_quadratic"), (4, 2, "hold_linear"), (3, 3, "hold_linear"),
    (5, 2, "hold_quadratic"), (4, 2, "planted_fail"), (4, 3, "hold_quadratic"),
    (5, 2, "hold_linear"), (5, 3, "planted_fail"),
)
SCHEDULE = _CELLS + ((4, 4, "planted_fail"),) + _CELLS + ((4, 3, "hold_linear"),)

Poly = dict  # exponent tuple -> Fraction


@dataclass(frozen=True)
class GeneratedSpec:
    name: str
    text: str
    p: int
    q: int
    kind: str
    expected_rank: int


def _small(rng: random.Random) -> Fraction:
    """Nonzero rational with small numerator and denominator."""
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _mono(p: int, *indices: int) -> tuple:
    exps = [0] * p
    for i in indices:
        exps[i] += 1
    return tuple(exps)


def _add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for mono, c in b.items():
        v = out.get(mono, Fraction(0)) + c
        if v:
            out[mono] = v
        else:
            out.pop(mono, None)
    return out


def _mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            out = _add(out, {tuple(x + y for x, y in zip(ma, mb)): ca * cb})
    return out


def _derivative(poly: Poly, var: int) -> Poly:
    out: Poly = {}
    for mono, c in poly.items():
        if mono[var]:
            m = list(mono)
            m[var] -= 1
            out = _add(out, {tuple(m): c * mono[var]})
    return out


def _evaluate(poly: Poly, point) -> Fraction:
    total = Fraction(0)
    for mono, c in poly.items():
        term = c
        for x, e in zip(point, mono):
            term *= x ** e
        total += term
    return total


def _exact_rank(rows) -> int:
    """Rank of a matrix of Fractions by exact Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _jacobian_rank_at_random_point(g: list[Poly], p: int, rng: random.Random) -> int:
    point = [Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000)) for _ in range(p)]
    return _exact_rank([[_evaluate(_derivative(gi, j), point) for j in range(p)] for gi in g])


def _shape(p: int, q: int, kind: str, rng: random.Random) -> list[list[tuple]]:
    """Monomials of each restriction; the values are drawn separately."""
    def quadratic():
        return _mono(p, rng.randrange(p), rng.randrange(p))

    if kind == "hold_linear":
        return [[_mono(p, j), quadratic()] for j in rng.sample(range(p), q)]
    if kind == "hold_quadratic":
        return [[quadratic(), quadratic()] for _ in range(q)]
    if kind == "planted_fail":
        rows = [[_mono(p, j), quadratic()] for j in rng.sample(range(p), q - 1)]
        # the last restriction is l_a * l_b; encode the pair as a marker row
        return rows + [[("product", rng.randrange(q - 1), rng.randrange(q - 1))]]
    raise ValueError(f"unknown kind {kind!r}")


def _fill(shape: list[list[tuple]], rng: random.Random) -> list[Poly]:
    g: list[Poly] = []
    for row in shape:
        if row[0][0] == "product":
            _, a, b = row[0]
            g.append(_mul(_linear_part(g[a]), _linear_part(g[b])))
            continue
        poly: Poly = {}
        for mono in row:
            poly = _add(poly, {mono: _small(rng)})
        g.append(poly)
    return g


def _linear_part(poly: Poly) -> Poly:
    return {mono: c for mono, c in poly.items() if sum(mono) == 1}


def _system(p: int, q: int, kind: str, shape_rng: random.Random,
            value_rng: random.Random) -> list[Poly]:
    """Restrictions in deviation coordinates.

    The monomial shape comes from ``shape_rng``, which does not depend on the
    workload seed, so each stream position costs about the same for every
    seed; the seed only moves the coefficients.
    """
    while True:
        shape = _shape(p, q, kind, shape_rng)
        for _ in range(20):
            g = _fill(shape, value_rng)
            if kind != "hold_quadratic" or (
                    all(g) and _jacobian_rank_at_random_point(g, p, value_rng) == q):
                return g


def _shift(poly: Poly, theta_bar: list[int], p: int) -> Poly:
    """Rewrite a polynomial in u = theta - theta_bar as one in theta."""
    out: Poly = {}
    for mono, c in poly.items():
        term: Poly = {_mono(p): c}
        for var, e in enumerate(mono):
            factor = {_mono(p, var): Fraction(1), _mono(p): Fraction(-theta_bar[var])}
            for _ in range(e):
                term = _mul(term, factor)
        out = _add(out, term)
    return out


def _fraction_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def poly_text(poly: Poly, names: list[str]) -> str:
    parts = []
    for mono in sorted(poly, key=lambda m: (-sum(m), tuple(-e for e in m))):
        c = poly[mono]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e]
        mag = abs(c)
        body = "*".join(([_fraction_text(mag)] if mag != 1 or not factors else []) + factors)
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _random_spd(p: int, rng: random.Random) -> list[list[Fraction]]:
    """Dense exact SPD matrix L D L' with unit lower-triangular L."""
    L = [[Fraction(int(i == j)) for j in range(p)] for i in range(p)]
    for i in range(p):
        for j in range(i):
            L[i][j] = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((2, 3, 4)))
    D = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(p)]
    return [[sum(L[i][k] * D[k] * L[j][k] for k in range(p)) for j in range(p)]
            for i in range(p)]


def generate(seed: int, count: int) -> list[GeneratedSpec]:
    """``count`` seeded specs following the stratified SCHEDULE."""
    specs = []
    for idx in range(count):
        p, q, kind = SCHEDULE[idx % len(SCHEDULE)]
        rng = random.Random(f"waldbench-values-{seed}-{idx}")
        names = [f"x{i + 1}" for i in range(p)]
        theta_bar = [rng.choice((-2, -1, 1, 2)) for _ in range(p)]
        g = _system(p, q, kind, random.Random(f"waldbench-shape-{idx}"), rng)
        V = _random_spd(p, rng)
        lines = [f"# waldbench seed {seed} system {idx}: {kind}, p={p}, q={q}",
                 "vars " + " ".join(names),
                 "theta_bar " + " ".join(str(t) for t in theta_bar)]
        lines += ["g " + poly_text(_shift(gi, theta_bar, p), names) for gi in g]
        lines += ["V " + " ".join(_fraction_text(v) for v in row) for row in V]
        specs.append(GeneratedSpec(
            name=f"sys{idx:03d}.spec",
            text="\n".join(lines) + "\n",
            p=p, q=q, kind=kind,
            expected_rank=q - 1 if kind == "planted_fail" else q,
        ))
    return specs


def write_specs(specs: list[GeneratedSpec], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for spec in specs:
        path = directory / spec.name
        path.write_text(spec.text, encoding="utf-8")
        paths.append(path)
    return paths
