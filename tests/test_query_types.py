"""Query types hold Python floats, whatever they are built from."""

from fractions import Fraction

import numpy as np

from tracelogdet import bounds, report, spectra
from tracelogdet.estimators import WeightVector, lagrange_weights
from tracelogdet.measure_solver import AtomicMeasure
from tracelogdet.moments import (CumulantSamples, NormalizedMoments,
                                 SymmetricMeans, TracePowers, boxcox_samples,
                                 central_moments, normalize)


def _plain(values) -> bool:
    return type(values) is tuple and all(type(v) is float for v in values)


def test_tuples_of_floats_and_arrays_where_arrays_are_real():
    for kind in (list, tuple, np.array):
        M = kind([1.0, 1.5, 3.0])
        nm = NormalizedMoments(n=8, M=M)
        mu = AtomicMeasure(kind([1.5, 0.5]), kind([0.5, 0.5]))
        sm = SymmetricMeans(n=8, logE=kind([0.0, -0.1]),
                            delta=kind([1e-15, 2e-15]))
        wv = WeightVector(m=2, w=kind([2.0, -0.5]), w0_exact=Fraction(-3, 2),
                          w_exact=(Fraction(2), Fraction(-1, 2)))
        for values in (nm.M, CumulantSamples(K=kind([0.0, 0.0, 0.4])).K,
                       sm.logE, sm.delta, mu.x, mu.w, wv.w,
                       central_moments(nm, 3), boxcox_samples(nm, 0.3)):
            assert _plain(values)
    assert _plain(lagrange_weights(4).w)
    assert _plain(SymmetricMeans(n=8, logE=[0.0]).delta)

    s = spectra.generate("geometric", 64, 50.0)
    tp = spectra.trace_powers(s, 6)
    assert _plain(tuple(tp.p)) and type(tp.p) is list
    assert isinstance(s.eigenvalues, np.ndarray)
    arrayed = TracePowers(n=tp.n, p=np.array(tp.p))
    assert _plain(tuple(arrayed.p)) and type(arrayed.p) is list
    assert TracePowers(n=tp.n, p=tp.p).p is not tp.p
    r = float(s.eigenvalues[0]) / (tp.p[0] / tp.n)
    assert (report.certify(tp, 4, r=r).to_dict()
            == report.certify(arrayed, 4, r=r).to_dict())
    assert (vars(bounds.bounds_report(normalize(tp), r=r))
            == vars(bounds.bounds_report(normalize(arrayed), r=r)))

    # a caller may still edit a copy of the powers in place
    p = tp.p.copy()
    p[3] *= 0.5
    halved = TracePowers(n=tp.n, p=p)
    assert halved.p[3] == 0.5 * tp.p[3] and halved.p[2] == tp.p[2]
