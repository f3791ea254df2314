"""Literal bytes of the grid commands on families whose samples fail.

Recorded before the scan statistic and the per-n maximum moved into the
generated lane function, so they hold that code to the bytes the walk and
the Python statistic printed: a pole, ``Overflow`` from an ``exp`` window
past the guard, a ``CriticalPoint`` at the origin, and a Schwarzian whose
modulus is past the double range (its neighbours' statistic is nan,
which flags them ``Overflow`` too).  The ``hypotheses`` goldens cover each rule of its
floor sweep: the families above and the ones below them, recorded before
that sweep moved into the lane function too.  Each scan runs at one and at
two workers, which must print the same bytes.
"""

import contextlib
import io

import pytest

from schwarzian_lab.cli import main

_BIG = "25" + "0" * 306  # 2.5e307: S(0) = 1.5e308 (1 + i), |S(0)| overflows

_FAMILIES = {
    "pole": ("1/(z-n)", "0,2,0,1,3,1"),
    "exp-window": ("exp(n*z)", "80,240,-1,1,3,1"),
    "critical": ("z^2+n*z^3", "-0.5,0.5,0,1,3,1"),
    "s-overflow": (f"z+(1+i)*{_BIG}*z^3", "-0.5,0.5,0,1,3,1"),
    # the floor sweep's other rules, recorded before it moved into the lane
    # function: |f'| past the double range (n >= 7); |S| past it with finite
    # parts at the origin; S = -inf + nan i there, and nan + nan i, each of
    # which flags its lane "Overflow" as an |S| past the range does, so the
    # lane counts for nothing; f' = 2z with both parts within
    # the critical-point floor and its modulus past it, where S is defined;
    # and a critical lane whose |f''| overflows, which counts for nothing
    "d1-overflow": (f"(1+i)*2{'0' * 307}*n*z", "-0.5,0.5,0,1,3,1"),
    "s-modulus": (f"0.00000000001*z+52{'0' * 141}*(1+0.41421356*i)*z^2", "-0.5,0.5,0,1,3,1"),
    "s-inf": (f"0.00000000001*z+5{'0' * 143}*z^2", "-0.5,0.5,0,1,3,1"),
    "s-nan": (f"0.00000000001*z+5{'0' * 143}*(1+i)*z^2", "-0.5,0.5,0,1,3,1"),
    "guard": ("z^2+n*z^3", "4.5e-13,1,4.5e-13,1,1,1"),
    "critical-d2": (f"(1+i)*75{'0' * 306}*z^2", "-0.5,0.5,0,1,3,1"),
}
_COMMON = ("--radius", "0.1", "--samples", "3", "--n-max", "8")
_EXTRA = {
    "scan-marty": ("--seed", "0"),
    "scan-sd": ("--seed", "0"),
    "hypotheses": ("--epsilon", "0.5", "--zeta", "0.3+0.2i", "--L", "10"),
}

_GOLDEN = {
    ('scan-marty', 'pole', 'csv'): (
        0,
        're,im,sup_stat,argmax_n,growth_slope,flags,verdict\n'
        '0,0,0.5449484277928933,1,-1.9754792641627321,,bounded\n'
        '1,0,0.9900990099009902,1,-2.3161790235611197,Pole,bounded\n'
        '2,0,0.99009900990099,2,-2.8441648222276075,Pole,bounded\n',
        '',
    ),
    ('scan-marty', 'pole', 'json'): (
        0,
        '[\n'
        '  {\n    "re": 0.0,\n    "im": 0.0,\n    "sup_stat": 0.5449484277928933,\n    "argmax_n": 1,\n    "growth_slope": -1.9754792641627321,\n    "flags": "",\n    "verdict": "bounded"\n  },\n'
        '  {\n    "re": 1.0,\n    "im": 0.0,\n    "sup_stat": 0.9900990099009902,\n    "argmax_n": 1,\n    "growth_slope": -2.3161790235611197,\n    "flags": "Pole",\n    "verdict": "bounded"\n  },\n'
        '  {\n    "re": 2.0,\n    "im": 0.0,\n    "sup_stat": 0.99009900990099,\n    "argmax_n": 2,\n    "growth_slope": -2.8441648222276075,\n    "flags": "Pole",\n    "verdict": "bounded"\n  }\n'
        ']\n',
        '',
    ),
    # 1/(z-n) is a Moebius map, so its S is exactly 0 (schwarzian._mobius_parts):
    # re-recorded from the roundoff that S of its jet read before
    ('scan-sd', 'pole', 'csv'): (
        0,
        're,im,sup_stat,argmax_n,growth_slope,flags,verdict\n'
        '0,0,0.0,-1,0.0,,bounded\n'
        '1,0,0.0,-1,0.0,Pole,bounded\n'
        '2,0,0.0,-1,0.0,Pole,bounded\n',
        '',
    ),
    ('scan-sd', 'pole', 'json'): (
        0,
        '[\n'
        '  {\n    "re": 0.0,\n    "im": 0.0,\n    "sup_stat": 0.0,\n    "argmax_n": -1,\n    "growth_slope": 0.0,\n    "flags": "",\n    "verdict": "bounded"\n  },\n'
        '  {\n    "re": 1.0,\n    "im": 0.0,\n    "sup_stat": 0.0,\n    "argmax_n": -1,\n    "growth_slope": 0.0,\n    "flags": "Pole",\n    "verdict": "bounded"\n  },\n'
        '  {\n    "re": 2.0,\n    "im": 0.0,\n    "sup_stat": 0.0,\n    "argmax_n": -1,\n    "growth_slope": 0.0,\n    "flags": "Pole",\n    "verdict": "bounded"\n  }\n'
        ']\n',
        '',
    ),
    ('hypotheses', 'pole', 'csv'): (
        1,
        'epsilon,L,floor_ok,value_ok,min_abs_derivative,M2,M3,sd_bound,max_abs_schwarzian,sound,passed\n'
        '0.5,10.0,false,true,0.01525187987514473,2000.0000000000114,60000.00000000046,24120000.000000276,1.6077746776921858e-13,true,false\n',
        '',
    ),
    ('hypotheses', 'pole', 'json'): (
        1,
        '{\n  "epsilon": 0.5,\n  "L": 10.0,\n  "floor_ok": false,\n  "value_ok": true,\n  "min_abs_derivative": 0.01525187987514473,\n  "M2": 2000.0000000000114,\n  "M3": 60000.00000000046,\n  "sd_bound": 24120000.000000276,\n  "max_abs_schwarzian": 1.6077746776921858e-13,\n  "sound": true,\n  "flags": "Pole",\n  "passed": false\n}\n',
        '',
    ),
    ('scan-marty', 'exp-window', 'csv'): (
        0,
        're,im,sup_stat,argmax_n,growth_slope,flags,verdict\n'
        '80,-1,1.989152693344028e-35,1,0.0,,bounded\n'
        '160,-1,3.257488532207521e-70,1,nan,Overflow,inconclusive\n'
        '240,-1,6.3967171808912655e-105,1,nan,Overflow,inconclusive\n',
        '',
    ),
    ('scan-marty', 'exp-window', 'json'): (
        0,
        '[\n'
        '  {\n    "re": 80.0,\n    "im": -1.0,\n    "sup_stat": 1.989152693344028e-35,\n    "argmax_n": 1,\n    "growth_slope": 0.0,\n    "flags": "",\n    "verdict": "bounded"\n  },\n'
        '  {\n    "re": 160.0,\n    "im": -1.0,\n    "sup_stat": 3.257488532207521e-70,\n    "argmax_n": 1,\n    "growth_slope": "nan",\n    "flags": "Overflow",\n    "verdict": "inconclusive"\n  },\n'
        '  {\n    "re": 240.0,\n    "im": -1.0,\n    "sup_stat": 6.3967171808912655e-105,\n    "argmax_n": 1,\n    "growth_slope": "nan",\n    "flags": "Overflow",\n    "verdict": "inconclusive"\n  }\n'
        ']\n',
        '',
    ),
    ('scan-sd', 'exp-window', 'csv'): (
        0,
        're,im,sup_stat,argmax_n,growth_slope,flags,verdict\n'
        '80,-1,0.0,-1,0.0,,bounded\n'
        '160,-1,0.0,-1,nan,Overflow,inconclusive\n'
        '240,-1,0.0,-1,nan,Overflow,inconclusive\n',
        '',
    ),
    ('scan-sd', 'exp-window', 'json'): (
        0,
        '[\n'
        '  {\n    "re": 80.0,\n    "im": -1.0,\n    "sup_stat": 0.0,\n    "argmax_n": -1,\n    "growth_slope": 0.0,\n    "flags": "",\n    "verdict": "bounded"\n  },\n'
        '  {\n    "re": 160.0,\n    "im": -1.0,\n    "sup_stat": 0.0,\n    "argmax_n": -1,\n    "growth_slope": "nan",\n    "flags": "Overflow",\n    "verdict": "inconclusive"\n  },\n'
        '  {\n    "re": 240.0,\n    "im": -1.0,\n    "sup_stat": 0.0,\n    "argmax_n": -1,\n    "growth_slope": "nan",\n    "flags": "Overflow",\n    "verdict": "inconclusive"\n  }\n'
        ']\n',
        '',
    ),
    ('hypotheses', 'exp-window', 'csv'): (
        3,
        '',
        'error: OverflowAtPoint: Schwarzian bound not finite: M2 1.1444371239114386e+280, M3 9.155496991291508e+280, epsilon 0.5\n',
    ),
    ('hypotheses', 'exp-window', 'json'): (
        3,
        '',
        'error: OverflowAtPoint: Schwarzian bound not finite: M2 1.1444371239114386e+280, M3 9.155496991291508e+280, epsilon 0.5\n',
    ),
    ('scan-marty', 'critical', 'csv'): (
        0,
        're,im,sup_stat,argmax_n,growth_slope,flags,verdict\n'
        '-0.5,0,3.2,8,0.3252111082196208,,inconclusive\n'
        '0,0,0.38286627428436865,8,0.481760997877905,,inconclusive\n'
        '0.5,0,3.1891644635219936,8,0.363952261346188,,inconclusive\n',
        '',
    ),
    ('scan-marty', 'critical', 'json'): (
        0,
        '[\n'
        '  {\n    "re": -0.5,\n    "im": 0.0,\n    "sup_stat": 3.2,\n    "argmax_n": 8,\n    "growth_slope": 0.3252111082196208,\n    "flags": "",\n    "verdict": "inconclusive"\n  },\n'
        '  {\n    "re": 0.0,\n    "im": 0.0,\n    "sup_stat": 0.38286627428436865,\n    "argmax_n": 8,\n    "growth_slope": 0.481760997877905,\n    "flags": "",\n    "verdict": "inconclusive"\n  },\n'
        '  {\n    "re": 0.5,\n    "im": 0.0,\n    "sup_stat": 3.1891644635219936,\n    "argmax_n": 8,\n    "growth_slope": 0.363952261346188,\n    "flags": "",\n    "verdict": "inconclusive"\n  }\n'
        ']\n',
        '',
    ),
    ('scan-sd', 'critical', 'csv'): (
        0,
        're,im,sup_stat,argmax_n,growth_slope,flags,verdict\n'
        '-0.5,0,0.42301763073585363,1,0.09607242582911368,,bounded\n'
        '0,0,0.2569107478120864,3,-0.3246000831443162,CriticalPoint,bounded\n'
        '0.5,0,0.44082780680622824,1,-0.07820066355743603,,bounded\n',
        '',
    ),
    ('scan-sd', 'critical', 'json'): (
        0,
        '[\n'
        '  {\n    "re": -0.5,\n    "im": 0.0,\n    "sup_stat": 0.42301763073585363,\n    "argmax_n": 1,\n    "growth_slope": 0.09607242582911368,\n    "flags": "",\n    "verdict": "bounded"\n  },\n'
        '  {\n    "re": 0.0,\n    "im": 0.0,\n    "sup_stat": 0.2569107478120864,\n    "argmax_n": 3,\n    "growth_slope": -0.3246000831443162,\n    "flags": "CriticalPoint",\n    "verdict": "bounded"\n  },\n'
        '  {\n    "re": 0.5,\n    "im": 0.0,\n    "sup_stat": 0.44082780680622824,\n    "argmax_n": 1,\n    "growth_slope": -0.07820066355743603,\n    "flags": "",\n    "verdict": "bounded"\n  }\n'
        ']\n',
        '',
    ),
    ('hypotheses', 'critical', 'csv'): (
        1,
        'epsilon,L,floor_ok,value_ok,min_abs_derivative,M2,M3,sd_bound,max_abs_schwarzian,sound,passed\n'
        '0.5,10.0,false,true,0.0,30.738331208236897,48.0,5765.070032803622,261.3020352255983,true,false\n',
        '',
    ),
    ('hypotheses', 'critical', 'json'): (
        1,
        '{\n  "epsilon": 0.5,\n  "L": 10.0,\n  "floor_ok": false,\n  "value_ok": true,\n  "min_abs_derivative": 0.0,\n  "M2": 30.738331208236897,\n  "M3": 48.0,\n  "sd_bound": 5765.070032803622,\n  "max_abs_schwarzian": 261.3020352255983,\n  "sound": true,\n  "flags": "",\n  "passed": false\n}\n',
        '',
    ),
    ('scan-marty', 's-overflow', 'csv'): (
        0,
        're,im,sup_stat,argmax_n,growth_slope,flags,verdict\n'
        '-0.5,0,0.0,-1,0.0,,bounded\n'
        '0,0,1.0,1,0.0,,bounded\n'
        '0.5,0,0.0,-1,0.0,,bounded\n',
        '',
    ),
    ('scan-marty', 's-overflow', 'json'): (
        0,
        '[\n'
        '  {\n    "re": -0.5,\n    "im": 0.0,\n    "sup_stat": 0.0,\n    "argmax_n": -1,\n    "growth_slope": 0.0,\n    "flags": "",\n    "verdict": "bounded"\n  },\n'
        '  {\n    "re": 0.0,\n    "im": 0.0,\n    "sup_stat": 1.0,\n    "argmax_n": 1,\n    "growth_slope": 0.0,\n    "flags": "",\n    "verdict": "bounded"\n  },\n'
        '  {\n    "re": 0.5,\n    "im": 0.0,\n    "sup_stat": 0.0,\n    "argmax_n": -1,\n    "growth_slope": 0.0,\n    "flags": "",\n    "verdict": "bounded"\n  }\n'
        ']\n',
        '',
    ),
    ('scan-sd', 's-overflow', 'csv'): (
        0,
        're,im,sup_stat,argmax_n,growth_slope,flags,verdict\n'
        '-0.5,0,0.0,-1,nan,Overflow,inconclusive\n'
        '0,0,0.0,-1,nan,Overflow,inconclusive\n'
        '0.5,0,0.0,-1,nan,Overflow,inconclusive\n',
        '',
    ),
    ('scan-sd', 's-overflow', 'json'): (
        0,
        '[\n'
        '  {\n    "re": -0.5,\n    "im": 0.0,\n    "sup_stat": 0.0,\n    "argmax_n": -1,\n    "growth_slope": "nan",\n    "flags": "Overflow",\n    "verdict": "inconclusive"\n  },\n'
        '  {\n    "re": 0.0,\n    "im": 0.0,\n    "sup_stat": 0.0,\n    "argmax_n": -1,\n    "growth_slope": "nan",\n    "flags": "Overflow",\n    "verdict": "inconclusive"\n  },\n'
        '  {\n    "re": 0.5,\n    "im": 0.0,\n    "sup_stat": 0.0,\n    "argmax_n": -1,\n    "growth_slope": "nan",\n    "flags": "Overflow",\n    "verdict": "inconclusive"\n  }\n'
        ']\n',
        '',
    ),
    ('hypotheses', 's-overflow', 'csv'): (
        1,
        'epsilon,L,floor_ok,value_ok,min_abs_derivative,M2,M3,sd_bound,max_abs_schwarzian,sound,passed\n'
        '0.5,10.0,false,false,nan,0.0,0.0,0.0,0.0,false,false\n',
        '',
    ),
    ('hypotheses', 's-overflow', 'json'): (
        1,
        '{\n  "epsilon": 0.5,\n  "L": 10.0,\n  "floor_ok": false,\n  "value_ok": false,\n  "min_abs_derivative": "nan",\n  "M2": 0.0,\n  "M3": 0.0,\n  "sd_bound": 0.0,\n  "max_abs_schwarzian": 0.0,\n  "sound": false,\n  "flags": "Overflow",\n  "passed": false\n}\n',
        '',
    ),
    ('hypotheses', 'd1-overflow', 'csv'): (
        1,
        'epsilon,L,floor_ok,value_ok,min_abs_derivative,M2,M3,sd_bound,max_abs_schwarzian,sound,passed\n'
        '0.5,10.0,false,false,2.82842712474619e+307,0.0,0.0,0.0,0.0,false,false\n',
        '',
    ),
    ('hypotheses', 'd1-overflow', 'json'): (
        1,
        '{\n  "epsilon": 0.5,\n  "L": 10.0,\n  "floor_ok": false,\n  "value_ok": false,\n  "min_abs_derivative": 2.82842712474619e+307,\n  "M2": 0.0,\n  "M3": 0.0,\n  "sd_bound": 0.0,\n  "max_abs_schwarzian": 0.0,\n  "sound": false,\n  "flags": "Overflow",\n  "passed": false\n}\n',
        '',
    ),
    ('hypotheses', 's-modulus', 'csv'): (
        1,
        'epsilon,L,floor_ok,value_ok,min_abs_derivative,M2,M3,sd_bound,max_abs_schwarzian,sound,passed\n'
        '0.5,10.0,false,false,1.12568788735962e+142,1.1256878873596199e+143,0.0,7.603039318488985e+286,150.0,false,false\n',
        '',
    ),
    ('hypotheses', 's-modulus', 'json'): (
        1,
        '{\n  "epsilon": 0.5,\n  "L": 10.0,\n  "floor_ok": false,\n  "value_ok": false,\n  "min_abs_derivative": 1.12568788735962e+142,\n  "M2": 1.1256878873596199e+143,\n  "M3": 0.0,\n  "sd_bound": 7.603039318488985e+286,\n  "max_abs_schwarzian": 150.0,\n  "sound": false,\n  "flags": "Overflow",\n  "passed": false\n}\n',
        '',
    ),
    ('hypotheses', 's-inf', 'csv'): (
        1,
        'epsilon,L,floor_ok,value_ok,min_abs_derivative,M2,M3,sd_bound,max_abs_schwarzian,sound,passed\n'
        '0.5,10.0,false,false,1.0000000000000002e+143,1e+144,0.0,6e+288,150.0,false,false\n',
        '',
    ),
    ('hypotheses', 's-inf', 'json'): (
        1,
        '{\n  "epsilon": 0.5,\n  "L": 10.0,\n  "floor_ok": false,\n  "value_ok": false,\n  "min_abs_derivative": 1.0000000000000002e+143,\n  "M2": 1e+144,\n  "M3": 0.0,\n  "sd_bound": 6e+288,\n  "max_abs_schwarzian": 150.0,\n  "sound": false,\n  "flags": "Overflow",\n  "passed": false\n}\n',
        '',
    ),
    ('hypotheses', 's-nan', 'csv'): (
        1,
        'epsilon,L,floor_ok,value_ok,min_abs_derivative,M2,M3,sd_bound,max_abs_schwarzian,sound,passed\n'
        '0.5,10.0,false,false,1.4142135623730954e+143,1.414213562373095e+144,0.0,1.2e+289,149.99999999999994,false,false\n',
        '',
    ),
    ('hypotheses', 's-nan', 'json'): (
        1,
        '{\n  "epsilon": 0.5,\n  "L": 10.0,\n  "floor_ok": false,\n  "value_ok": false,\n  "min_abs_derivative": 1.4142135623730954e+143,\n  "M2": 1.414213562373095e+144,\n  "M3": 0.0,\n  "sd_bound": 1.2e+289,\n  "max_abs_schwarzian": 149.99999999999994,\n  "sound": false,\n  "flags": "Overflow",\n  "passed": false\n}\n',
        '',
    ),
    ('hypotheses', 'guard', 'csv'): (
        1,
        'epsilon,L,floor_ok,value_ok,min_abs_derivative,M2,M3,sd_bound,max_abs_schwarzian,sound,passed\n'
        '0.5,10.0,false,true,1.2727922061366447e-12,6.620916932785384,48.0,359.01924618506536,3.703703703717037e+24,false,false\n',
        '',
    ),
    ('hypotheses', 'guard', 'json'): (
        1,
        '{\n  "epsilon": 0.5,\n  "L": 10.0,\n  "floor_ok": false,\n  "value_ok": true,\n  "min_abs_derivative": 1.2727922061366447e-12,\n  "M2": 6.620916932785384,\n  "M3": 48.0,\n  "sd_bound": 359.01924618506536,\n  "max_abs_schwarzian": 3.703703703717037e+24,\n  "sound": false,\n  "flags": "",\n  "passed": false\n}\n',
        '',
    ),
    ('hypotheses', 'critical-d2', 'csv'): (
        1,
        'epsilon,L,floor_ok,value_ok,min_abs_derivative,M2,M3,sd_bound,max_abs_schwarzian,sound,passed\n'
        '0.5,10.0,false,false,nan,0.0,0.0,0.0,0.0,false,false\n',
        '',
    ),
    ('hypotheses', 'critical-d2', 'json'): (
        1,
        '{\n  "epsilon": 0.5,\n  "L": 10.0,\n  "floor_ok": false,\n  "value_ok": false,\n  "min_abs_derivative": "nan",\n  "M2": 0.0,\n  "M3": 0.0,\n  "sd_bound": 0.0,\n  "max_abs_schwarzian": 0.0,\n  "sound": false,\n  "flags": "Overflow",\n  "passed": false\n}\n',
        '',
    ),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_CASES = [
    (command, family, fmt, workers)
    for command, family, fmt in _GOLDEN
    for workers in ((None,) if command == "hypotheses" else (1, 2))
]


@pytest.mark.parametrize(
    "command,family,fmt,workers",
    _CASES,
    ids=[f"{c}-{f}-{fmt}" + (f"-w{w}" if w else "") for c, f, fmt, w in _CASES],
)
def test_flag_heavy_grid_bytes(command, family, fmt, workers):
    text, grid = _FAMILIES[family]
    argv = [command, "--family", text, f"--grid={grid}", *_COMMON, *_EXTRA[command]]
    if workers is not None:
        argv += ["--workers", str(workers)]
    assert _run([*argv, "--format", fmt]) == _GOLDEN[command, family, fmt]
