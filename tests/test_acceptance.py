"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with `pytest -s` to see them inline).
"""

import math

import numpy as np

from heatinv import (
    GridFn,
    InversionConfig,
    ProblemInstance,
    SineSeries,
    invert,
    make_observations,
    make_problem,
    peel_lsq,
    peel_sequential,
    rel_l2,
    run_noise_study,
    solve_fd,
    solve_spectral,
    spectral_field,
    system_determinant,
)
from heatinv.cli import main
from heatinv.io import ExperimentConfig, save_config


def _report(cid: str, name: str, ok: bool, detail: str) -> bool:
    print(f"[{cid}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _generic_vh_errors(dt: float) -> tuple[float, float]:
    p = make_problem("generic", 16, 6.0, dt)
    obs = make_observations(p, 1.0)
    rec = invert(obs, InversionConfig(order=16, depth=2))
    t = rec.v_hat.times
    mask = t >= 0.01
    ev = rel_l2(rec.v_hat.values[mask], (np.exp(-t) - 1.0)[mask])
    eh = rel_l2(rec.h_hat.values[mask], (1.0 + np.cos(t))[mask])
    return ev, eh


def test_c1_determinant_reproduction():
    det = system_determinant()
    exact = -32.0 / (3.0 * math.pi)
    err = abs(det - exact)
    ok = err <= 1e-12
    assert _report("C1", "determinant reproduction", ok,
                   f"|det - (-32/(3 pi))| = {err:.3e} <= 1e-12")


def test_c2_clean_round_trip():
    p = make_problem("generic", 16, 6.0, 1e-3)
    obs = make_observations(p, 1.0)
    rec = invert(obs, InversionConfig(order=16, depth=2))
    t = rec.v_hat.times
    mask = t >= 0.01
    ev = rel_l2(rec.v_hat.values[mask], (np.exp(-t) - 1.0)[mask])
    eh = rel_l2(rec.h_hat.values[mask], (1.0 + np.cos(t))[mask])
    a1, a2 = rec.g_coeffs.sin_amplitudes[:2]
    ok = ev <= 1e-3 and eh <= 1e-3 and abs(a1 - 1.0) <= 1e-3 and abs(a2 - 0.5) <= 1e-2
    assert _report(
        "C2", "clean round trip", ok,
        f"v {ev:.2e} <= 1e-3, h {eh:.2e} <= 1e-3, "
        f"|g1-1| {abs(a1 - 1.0):.2e} <= 1e-3, |g2-0.5| {abs(a2 - 0.5):.2e} <= 1e-2",
    )


def test_c3_convergence_order():
    errs = [_generic_vh_errors(dt) for dt in (4e-3, 2e-3, 1e-3)]
    ratios = []
    for (ev0, eh0), (ev1, eh1) in zip(errs, errs[1:]):
        ratios += [ev0 / ev1, eh0 / eh1]
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    assert _report("C3", "convergence order", ok,
                   "halving ratios " + ", ".join(f"{r:.2f}" for r in ratios) + " in [3, 5]")


def test_c4_forward_oracle_agreement():
    p = make_problem("generic", 32, 2.0, 1e-3)
    spec = solve_spectral(p)
    x, u = solve_fd(p, 512)
    field = spectral_field(spec, x, v=p.v_grid())
    mask = spec.times >= 0.1
    err = float(np.max(np.abs(field[mask] - u[mask])))
    ok = err <= 1e-3
    assert _report("C4", "forward oracle agreement", ok,
                   f"sup |spectral - FD| = {err:.3e} <= 1e-3 on t in [0.1, 2]")


def test_c5_peeling_oracle_equivalence():
    b = np.array([1.0, 0.5, 0.25, 0.125])
    dt = 1e-3
    t = np.arange(round(16.0 / dt) + 1) * dt
    q = GridFn(0.0, dt, np.exp(-np.outer(t, np.arange(1, 5) ** 2)) @ b)
    seq = peel_sequential(q, 4)
    lsq, _ = peel_lsq(q, 4)
    e_seq = float(np.max(np.abs(seq.b_hat - b)))
    e_lsq = float(np.max(np.abs(lsq - b)))
    e_mut = float(np.max(np.abs(seq.b_hat - lsq)))
    ok = e_seq <= 1e-6 and e_lsq <= 1e-6 and e_mut <= 1e-6
    assert _report("C5", "peeling oracle equivalence", ok,
                   f"seq {e_seq:.2e}, lsq {e_lsq:.2e}, mutual {e_mut:.2e}, all <= 1e-6")


def test_c6_ill_posedness_exhibit():
    p = make_problem("fourmode", 8, 4.0, 2e-3)
    study = run_noise_study(p, 1.0, levels=[1e-6, 1e-4], trials=20, base_seed=7)
    mono = all(
        bool(np.all(np.diff(study.mean_b_err(lv)) >= 0.0)) for lv in (1e-6, 1e-4)
    )
    ratio = study.mean_h_err(1e-4) / study.mean_h_err(1e-6)
    ok = mono and ratio >= 10.0
    assert _report("C6", "ill-posedness exhibit", ok,
                   f"mean |b_hat - b| non-decreasing: {mono}, h-error ratio {ratio:.1f} >= 10")


def test_c7_determinism(tmp_path):
    cfg = ExperimentConfig(preset="fourmode", order=8, t_final=2.0, dt=2e-3, depth=4,
                           noise_kind="relative", noise_level=1e-5, seed=13,
                           levels=(0.0, 1e-5), trials=2)
    save_config(cfg, tmp_path / "c.json")
    runs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert main(["simulate", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 0
        assert main(["invert", str(out / "observations.csv"),
                     "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 0
        assert main(["study", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 0
        runs.append(out)
    names = ["observations.csv", "observations.json", "reconstruction.json",
             "reconstruction.csv", "report.txt", "study.csv", "study.json",
             "error_vs_mode.dat", "error_vs_level.dat"]
    same = {n: (runs[0] / n).read_bytes() == (runs[1] / n).read_bytes() for n in names}
    ok = all(same.values())
    assert _report("C7", "determinism", ok,
                   f"{sum(same.values())}/{len(names)} files byte-identical across reruns")


def test_c8_even_mode_invisibility():
    base = make_problem("decay1", 4, 4.0, 1e-3)
    bumped = ProblemInstance(h=base.h, v=base.v, g=SineSeries([1.0, 0.7]),
                             order=4, t_final=4.0, dt=1e-3)
    cfg = InversionConfig(order=4, depth=2)
    rec_a = invert(make_observations(base, 1.0), cfg)
    rec_b = invert(make_observations(bumped, 1.0), cfg)
    dv = float(np.max(np.abs(rec_a.v_hat.values - rec_b.v_hat.values)))
    dh = float(np.max(np.abs(rec_a.h_hat.values - rec_b.h_hat.values)))
    ok = dv < 1e-10 and dh < 1e-10
    assert _report("C8", "even-mode invisibility", ok,
                   f"sup |dv| = {dv:.1e}, sup |dh| = {dh:.1e}, both < 1e-10")
