"""The value-record contract of the seven public records.

Each record is built from keywords, compares and hashes by value, shows its
fields in its repr, refuses assignment and deletion, survives pickling and
copying, and (where it validates) rejects bad input with DomainError.
"""

import copy
import math
import pickle

import pytest

from loglambert import (
    BranchInfo,
    DiscreteDistribution,
    DomainError,
    EnsembleSpec,
    EntropyParams,
    EvalResult,
    Interval,
    Monotone,
    Params,
)

EP = EntropyParams(q=0.9, q_prime=0.8, r=0.7)
Y_RANGE = Interval(lo=0.0, hi=math.inf, lo_closed=False, hi_closed=False)
X_DOMAIN = Interval(lo=-1.5, hi=2.0, lo_closed=True, hi_closed=False)

# (record class, keyword arguments, one field changed, exact repr, bad inputs)
CASES = [
    (Params, dict(a=1.0, b=1.0, c=1.0), dict(c=2.0),
     "Params(a=1.0, b=1.0, c=1.0)",
     [dict(a=0.0, b=1.0, c=1.0), dict(a=1.0, b=0.0, c=1.0),
      dict(a=1.0, b=1.0, c=math.inf), dict(a=math.nan, b=1.0, c=1.0)]),
    (Interval, dict(lo=0.0, hi=math.inf, lo_closed=False, hi_closed=True),
     dict(hi_closed=False),
     "Interval(lo=0.0, hi=inf, lo_closed=False, hi_closed=True)", []),
    (BranchInfo, dict(index=1, y_range=Y_RANGE, x_domain=X_DOMAIN,
                      monotone=Monotone.INCREASING, seams=((-1.0, 2.0),)),
     dict(seams=()),
     "BranchInfo(index=1, "
     "y_range=Interval(lo=0.0, hi=inf, lo_closed=False, hi_closed=False), "
     "x_domain=Interval(lo=-1.5, hi=2.0, lo_closed=True, hi_closed=False), "
     "monotone=<Monotone.INCREASING: 'increasing'>, seams=((-1.0, 2.0),))", []),
    (EvalResult, dict(y=5.0, residual=0.0, iterations=3), dict(iterations=4),
     "EvalResult(y=5.0, residual=0.0, iterations=3, at_seam=False)", []),
    (EntropyParams, dict(q=0.9, q_prime=0.8, r=0.7), dict(k=2.0),
     "EntropyParams(q=0.9, q_prime=0.8, r=0.7, k=1.0)",
     [dict(q=0.9, q_prime=0.8, r=0.7, k=0.0), dict(q=0.9, q_prime=0.8, r=0.7, k=-1.0),
      dict(q=math.nan, q_prime=0.8, r=0.7), dict(q=0.9, q_prime=0.8, r=math.inf)]),
    (EnsembleSpec, dict(levels=(0.0, 0.5), alpha=0.0, beta=0.1, ep=EP), dict(beta=0.2),
     "EnsembleSpec(levels=(0.0, 0.5), alpha=0.0, beta=0.1, "
     "ep=EntropyParams(q=0.9, q_prime=0.8, r=0.7, k=1.0))",
     [dict(levels=(), alpha=0.0, beta=0.1, ep=EP),
      dict(levels=(0.0, math.nan), alpha=0.0, beta=0.1, ep=EP),
      dict(levels=(0.0,), alpha=math.inf, beta=0.1, ep=EP),
      dict(levels=(0.0,), alpha=0.0, beta=math.nan, ep=EP)]),
    (DiscreteDistribution, dict(probs=(0.25, 0.75), partition=1.0,
                                x_values=(-1.0, -2.0), beta_r=0.1),
     dict(partition=0.5),
     "DiscreteDistribution(probs=(0.25, 0.75), partition=1.0, "
     "x_values=(-1.0, -2.0), beta_r=0.1)", []),
]


@pytest.mark.parametrize("cls, kwargs, changed, text, bad", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_contract(cls, kwargs, changed, text, bad):
    rec = cls(**kwargs)
    assert repr(rec) == text
    for name, value in kwargs.items():
        assert getattr(rec, name) == value
    assert cls(*kwargs.values()) == rec

    # Defaults.
    if cls is EvalResult:
        assert rec.at_seam is False
        assert rec == cls(**kwargs, at_seam=False)
    if cls is EntropyParams:
        assert rec.k == 1.0
        assert rec == cls(**kwargs, k=1.0)

    # Value equality and hashing.
    twin = cls(**kwargs)
    assert twin is not rec and twin == rec and not twin != rec
    assert hash(twin) == hash(rec)
    other = cls(**{**kwargs, **changed})
    assert other != rec and not other == rec
    assert rec != tuple(kwargs.values())
    for other_cls, other_kwargs, *_ in CASES:
        if other_cls is not cls:
            assert rec != other_cls(**other_kwargs)

    # Immutability.
    field = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(rec, field, kwargs[field])
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert rec == twin

    # Pickling and copying.
    for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(clone) is cls and clone == rec and hash(clone) == hash(rec)
        assert repr(clone) == text

    # Validation.
    for bad_kwargs in bad:
        with pytest.raises(DomainError):
            cls(**bad_kwargs)
