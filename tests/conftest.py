import random
from fractions import Fraction

import pytest

from germlin.scalars import CC, QC, QQI
from germlin.series import FormalSeries


def random_qc(rng: random.Random, span: int = 3, den: int = 8) -> QC:
    return QC(Fraction(rng.randint(-span, span), rng.randint(1, den)),
              Fraction(rng.randint(-span, span), rng.randint(1, den)))


def random_series(rng: random.Random, n_h=1, n_v=1, max_p=3, max_q=3,
                  n_terms=5, trunc_h=12, trunc_v=8, field=QQI,
                  min_q=0) -> FormalSeries:
    terms = {}
    for _ in range(n_terms):
        p = tuple(rng.randint(-max_p, max_p) for _ in range(n_h))
        q = tuple(rng.randint(0, max_q) for _ in range(n_v))
        if sum(q) < min_q:
            continue
        if sum(abs(x) for x in p) > trunc_h or sum(q) > trunc_v:
            continue
        c = random_qc(rng)
        if field is CC:
            c = c.to_complex()
        terms[(p, q)] = c
    return FormalSeries(n_h, n_v, terms, trunc_h, trunc_v, field)


@pytest.fixture
def rng():
    return random.Random(20240811)
