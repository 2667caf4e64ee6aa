"""Reference values that do not come from upic.

Every value the benchmark checks is derived here from the generated inputs
with elementary closed forms: abelianization from the multiplication
table, Schur multipliers, universal coefficients, Shapiro's lemma on
induced modules, and determinantal divisors of small matrices.  Nothing in
this module imports upic.

An abelian group is written canonically as ``(free_rank, torsion)`` where
``torsion`` is the invariant-factor chain (each entry >= 2, each dividing
the next), the same normal form upic reports.
"""

from __future__ import annotations

import math
import re
from itertools import combinations

# Schur multipliers of the nonabelian groups the benchmark uses, as cyclic
# factor orders (Karpilovsky, The Schur Multiplier, 1987).
NONABELIAN_SCHUR = {"S3": (), "D4": (2,)}


def _prime_factors(n: int) -> list:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _valuation(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def canon(free_rank: int, cyclic_orders) -> tuple:
    """Invariant-factor normal form of Z^free_rank (+) (+)_i Z/cyclic_orders[i]."""
    primary = {}
    for n in cyclic_orders:
        if n < 1:
            raise ValueError(f"cyclic order {n} is not positive")
        for p in _prime_factors(n):
            primary.setdefault(p, []).append(p ** _valuation(n, p))
    length = max((len(v) for v in primary.values()), default=0)
    for v in primary.values():
        v.sort(reverse=True)
    chain = []
    for pos in range(length):
        chain.append(math.prod(v[pos] for v in primary.values() if pos < len(v)))
    return (free_rank, tuple(sorted(chain)))


def render(value: tuple) -> str:
    free, torsion = value
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{t}" for t in torsion)
    return " x ".join(parts) if parts else "0"


_FACTOR = re.compile(r"^(?:Z\^(\d+)|Z|Z/(\d+))$")


def parse(text: str) -> tuple:
    """Read a rendered abelian group such as ``Z^3 x Z/2 x Z/4`` back into canonical form."""
    text = text.strip()
    if text == "0":
        return (0, ())
    free, orders = 0, []
    for part in text.split(" x "):
        m = _FACTOR.match(part.strip())
        if not m:
            raise ValueError(f"cannot parse abelian group factor {part!r}")
        if m.group(1):
            free += int(m.group(1))
        elif m.group(2):
            orders.append(int(m.group(2)))
        else:
            free += 1
    return canon(free, orders)


# --- finite groups given by multiplication tables ---------------------------


def _identity(table) -> int:
    n = len(table)
    return next(e for e in range(n) if all(table[e][x] == x for x in range(n)))


def _power(table, x: int, k: int, e: int) -> int:
    out = e
    for _ in range(k):
        out = table[out][x]
    return out


def is_abelian(table) -> bool:
    n = len(table)
    return all(table[a][b] == table[b][a] for a in range(n) for b in range(a + 1, n))


def abelianization(table) -> tuple:
    """Invariants of G / [G, G], from element counts in the multiplication table.

    For a finite abelian quotient Q with p-primary factors Z/p^(e_i),
    #{q : q^(p^s) = 1} = p^(sum_i min(s, e_i)); successive ratios give the
    number of factors of exponent at least s.
    """
    n = len(table)
    e = _identity(table)
    inv = [next(y for y in range(n) if table[x][y] == e) for x in range(n)]
    commutator = {e}
    frontier = {table[table[a][b]][table[inv[a]][inv[b]]] for a in range(n) for b in range(n)}
    gens = set(frontier)
    while frontier:
        nxt = set()
        for x in frontier:
            for g in gens:
                y = table[x][g]
                if y not in commutator:
                    nxt.add(y)
        commutator |= frontier
        frontier = nxt - commutator
    k = len(commutator)
    order = n // k
    orders = []
    for p in _prime_factors(order):
        at_least = []
        prev = 1
        s = 1
        while True:
            count = sum(1 for x in range(n) if _power(table, x, p**s, e) in commutator) // k
            step = _valuation(count // prev, p)
            if step == 0:
                break
            at_least.append(step)
            prev = count
            s += 1
        for s in range(len(at_least), 0, -1):
            exactly = at_least[s - 1] - (at_least[s] if s < len(at_least) else 0)
            orders.extend([p**s] * exactly)
    return canon(0, orders)


def schur_multiplier(table, name: str) -> tuple:
    """M(G) = H^2(G, Q/Z): closed form for abelian groups, literature value otherwise."""
    if is_abelian(table):
        factors = abelianization(table)[1]
        return canon(0, [math.gcd(a, b) for a, b in combinations(factors, 2)])
    if name not in NONABELIAN_SCHUR:
        raise KeyError(f"no Schur multiplier on record for nonabelian group {name}")
    return canon(0, NONABELIAN_SCHUR[name])


def norm_one_pic(table) -> tuple:
    """pic of [J_G -> 0]: H^1(G, J_G) = H^2(G, Z) = Hom(G, Q/Z), isomorphic to G^ab."""
    return abelianization(table)


def norm_one_brauer(table, name: str) -> tuple:
    """brauer_a of [J_G -> 0]: H^2(G, J_G) = H^3(G, Z), isomorphic to M(G)."""
    return schur_multiplier(table, name)


def trivial_coeff_cohomology(factors, m: int, degree: int) -> tuple:
    """H^degree(G, Z/m) for G = (+) Z/factors[i] acting trivially (universal coefficients).

    H^0 = Z/m, H^1 = Hom(G, Z/m), H^2 = Ext(H_1 G, Z/m) (+) Hom(H_2 G, Z/m)
    with H_2 G = (+)_{i<j} Z/gcd(n_i, n_j).  For a cyclic group every
    positive degree gives Z/gcd(n, m).
    """
    if degree == 0:
        return canon(0, [m])
    hom = [math.gcd(n, m) for n in factors]
    if degree == 1 or len(factors) <= 1:
        return canon(0, hom)
    if degree == 2:
        # Ext(Z/n, Z/m) = Hom(Z/n, Z/m) = Z/gcd(n, m)
        return canon(0, hom + [math.gcd(math.gcd(a, b), m) for a, b in combinations(factors, 2)])
    raise ValueError("closed form only for degrees 0..2 on non-cyclic groups")


# --- two-term data ----------------------------------------------------------


def regular_to_signed_cyclic(order: int, n: int, a: int, alternating: bool) -> dict:
    """pic and brauer_a of [Z[C_order] -> Z/n], e |-> a, generator acting by -1 if alternating.

    Shapiro gives H^i(G, Z[G]) = 0 for i >= 1 and H^0 = Z * norm, so the
    long exact sequence of the triangle B[-1] -> C -> A -> B yields
    H^1(C) = B^G / <f(norm)> and H^2(C) = H^1(G, B) exactly.
    """
    if alternating:
        if order % 2:
            raise ValueError("an alternating sign needs a group of even order")
        # B^G = {b : 2b = 0}; f(norm) = a * sum of signs = 0; H^1(C_order, B) = B / 2B
        return {"pic": canon(0, [math.gcd(2, n)]), "brauer_a": canon(0, [math.gcd(2, n)])}
    return {
        "pic": canon(0, [math.gcd(n, order * a)]),
        "brauer_a": canon(0, [math.gcd(order, n)]),
    }


def smith_cokernel(rows) -> tuple:
    """Invariants of Z^r / (column span of ``rows``) for r <= 2, by determinantal divisors."""
    r = len(rows)
    if r == 0:
        return (0, ())
    cols = list(zip(*rows))
    d1 = 0
    for c in cols:
        for x in c:
            d1 = math.gcd(d1, x)
    if r == 1:
        return canon(1, []) if d1 == 0 else canon(0, [d1])
    if r != 2:
        raise ValueError("determinantal divisors implemented for at most two rows")
    d2 = 0
    for a, b in combinations(cols, 2):
        d2 = math.gcd(d2, a[0] * b[1] - a[1] * b[0])
    if d1 == 0:
        return canon(2, [])
    if d2 == 0:
        return canon(1, [d1])
    return canon(0, [d1, d2 // d1])


def dual_of_lattice_to_finite(rank_a: int, f_rows, moduli) -> dict:
    """H^0 and H^-1 of RHom([A -f-> B], Z) for a lattice A and a finite B = (+) Z/moduli[i].

    Over Z every complex splits into its cohomology, so the dual of
    [A -> B] is Hom(ker f, Z) (+) Ext(coker f, Z): H^0 = Z^rank(A) (+) coker f
    and H^-1 = 0.  The long-exact-sequence bookkeeping (rank H^0 = rank A,
    |tors H^0| divides |B|) is implied and checked separately.
    """
    k = len(moduli)
    rel = [[moduli[i] if i == j else 0 for j in range(k)] for i in range(k)]
    rows = [list(f_rows[i]) + rel[i] for i in range(k)]
    coker = smith_cokernel(rows)
    if coker[0]:
        raise ValueError("the target module must be finite")
    return {"h0": canon(rank_a, coker[1]), "hminus1": (0, ())}
