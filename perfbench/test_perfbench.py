"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``."""

import json
import time
from pathlib import Path

import pytest

import calibrate
import inputs
import oracles
import run
import spans

cli = run.import_endlam()
SCENES = run.SRC / "endlam" / "scenes"


def _files(directory: Path):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _strip(jobs, work: Path):
    return json.loads(json.dumps(jobs).replace(str(work), "<work>"))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    first = inputs.generate(workload, 7, SCENES, tmp_path / "a")
    second = inputs.generate(workload, 7, SCENES, tmp_path / "b")
    other = inputs.generate(workload, 8, SCENES, tmp_path / "c")
    assert _files(tmp_path / "a" / "inputs") == \
        _files(tmp_path / "b" / "inputs")
    assert _strip(first, tmp_path / "a") == _strip(second, tmp_path / "b")
    assert _files(tmp_path / "a" / "inputs") != \
        _files(tmp_path / "c" / "inputs")


def test_stratified_tables_hold_their_shares():
    rng = inputs.random.Random(3)
    tables = inputs._draw_stratified(rng, 7, inputs.ENTROPY_DEFECTIVE_SHARE,
                                     inputs.pattern)
    bad = [t for t in tables if inputs.perron_index(t) > 1]
    assert (len(tables), len(bad)) == (52, 3)
    good = [len(t) for t in tables if inputs.perron_index(t) == 1]
    assert sorted(good) == sorted(list(inputs.MARKOV_SIZES) * 7)
    # A triangular pattern with equal diagonal has a 2x2 Jordan block.
    assert inputs.perron_index([[1, 1], [0, 1]]) == 2
    assert inputs.perron_index([[1, 1], [1, 0]]) == 1


def _job(workload, kind, tmp_path, pick=lambda job: True):
    jobs = inputs.generate(workload, 11, SCENES, tmp_path)
    job = next(j for j in jobs if j["kind"] == kind and pick(j))
    rc, _, _, out, err = run.run_job(cli.run_command, job,
                                     calibrate.Sampler())
    return job, rc, out, err, oracles.Oracle(tmp_path / "inputs")


def _rewrite_json(path, edit):
    doc = json.loads(Path(path).read_text())
    edit(doc)
    Path(path).write_text(json.dumps(doc))


def test_oracle_rejects_a_shifted_chain_endpoint(tmp_path):
    job, rc, out, err, oracle = _job(
        "lam-shallow", "laminate", tmp_path,
        lambda j: j["scene"] == "schottky_ab.json"
        and j["expect"]["horizon"] >= 12)
    assert oracle.check(job, rc, out, err) is None
    report = job["argv"][job["argv"].index("--json") + 1]

    def shift(doc):
        lam = doc["laminations"]["+"]
        i = [c["conjugator"] for c in lam["certificates"]].index("")
        lam["leaves"][i]["a_angle"] += 1e-5

    _rewrite_json(report, shift)
    assert oracle.check(job, rc, out, err) == "chain-leaf"


def test_oracle_rejects_an_off_by_one_leaf_count(tmp_path):
    job, rc, out, err, oracle = _job(
        "lam-shallow", "laminate", tmp_path,
        lambda j: j["scene"] == "schottky_ab.json")
    assert oracle.check(job, rc, out, err) is None
    report = job["argv"][job["argv"].index("--json") + 1]
    _rewrite_json(report, lambda d: d["laminations"]["-"]["leaves"].pop())
    assert oracle.check(job, rc, out, err) == "leaf-count"


def test_oracle_rejects_an_off_by_one_word_count(tmp_path):
    job, rc, out, err, oracle = _job(
        "symbolic", "markov words", tmp_path,
        lambda j: "--list-words" not in j["argv"])
    assert oracle.check(job, rc, out, err) is None
    head = "admissible words of length 50: "
    count = next(int(line[len(head):]) for line in out.splitlines()
                 if line.startswith(head))
    bad = out.replace(f"{head}{count}", f"{head}{count + 1}")
    assert oracle.check(job, rc, bad, err) == "word-count"


@pytest.mark.parametrize("kind, field, cause", [
    ("markov entropy", "kappa", "entropy-value"),
    ("markov measure", "kappa_minus", "measure-value"),
])
def test_oracle_rejects_a_wrong_kappa(kind, field, cause, tmp_path):
    jobs = inputs.generate("symbolic", 11, SCENES, tmp_path)
    oracle = oracles.Oracle(tmp_path / "inputs")
    for job in (j for j in jobs if j["kind"] == kind):
        rc, _, _, out, err = run.run_job(cli.run_command, job,
                                         calibrate.Sampler())
        if rc == 0:
            break
    assert oracle.check(job, rc, out, err) is None
    report = job["argv"][job["argv"].index("--json") + 1]
    _rewrite_json(report, lambda d: d.update({field: d[field] * 1.001}))
    assert oracle.check(job, rc, out, err) == cause


def test_oracle_rejects_a_bent_arc(tmp_path):
    job, rc, out, err, oracle = _job("lam-shallow", "render", tmp_path,
                                     lambda j: j["family"] == "schottky")
    assert oracle.check(job, rc, out, err) is None
    svg = Path(job["argv"][job["argv"].index("--out") + 1])
    text = svg.read_text()
    start = text.index(' A ') + 3
    radius = text[start:text.index(' ', start)]
    svg.write_text(text.replace(radius, f"{float(radius) * 1.01:.9f}", 2))
    assert oracle.check(job, rc, out, err) == "svg"


def test_oracle_rejects_an_orbit_point_outside_the_disk(tmp_path):
    job, rc, out, err, oracle = _job("limit-set", "limit-set", tmp_path)
    assert oracle.check(job, rc, out, err) is None
    report = job["argv"][job["argv"].index("--json") + 1]
    _rewrite_json(report, lambda d: d["orbit"].__setitem__(5, [0.8, 0.7]))
    assert oracle.check(job, rc, out, err) == "limit-set"


def test_oracle_names_the_known_failures(tmp_path):
    job, rc, out, err, oracle = _job("lam-shallow", "axioms", tmp_path,
                                     lambda j: j["family"] == "inner_b")
    assert oracle.check(job, rc, out, err) == "endpoints-coincide"
    assert set(oracles.KNOWN_CAUSES) >= {"endpoints-coincide"}


def test_self_times_sum_to_the_job_duration(tmp_path):
    jobs = inputs.generate("lam-shallow", 5, SCENES, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for job in jobs[:4]:
            run.run_job(cli.run_command, job, calibrate.Sampler(), tracer)
    finally:
        tracer.uninstall()
    resolution = time.get_clock_info("thread_time").resolution
    selfs = tracer.self_times()
    for job in jobs[:4]:
        ids = [i for i, s in enumerate(tracer.spans) if s[0] == job["id"]]
        root = next(i for i in ids if tracer.spans[i][4] is None)
        duration = tracer.spans[root][3] - tracer.spans[root][2]
        total = sum(selfs[i] for i in ids)
        assert len(ids) > 1
        assert abs(total - duration) <= len(ids) * (resolution + 1e-15)
        assert all(s >= -resolution for s in (selfs[i] for i in ids))


def test_sampler_rescales_to_nominal_speed():
    sampler = calibrate.Sampler()
    with sampler.running():
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
    assert len(sampler.ratios) >= 5
    assert 0.0 < sampler.spent < 0.2
    assert all(r > 0.0 for r in sampler.ratios + sampler.gap())
    assert calibrate.factor([0.5, 1.5]) == 1.0
    assert calibrate.factor([]) is None
    # A clock that stalls or steps back gives no sample.
    assert calibrate._timed(lambda: None, 0.001)[0] is None


def test_uninstall_restores_every_binding():
    import endlam.cli
    import endlam.lamination

    before = (endlam.cli.crossing_audit, endlam.lamination.crossing_audit,
              endlam.lamination.GeodesicFamily.__dict__["merge"])
    tracer = spans.Tracer()
    tracer.install()
    assert endlam.cli.crossing_audit is not before[0]
    assert endlam.lamination.crossing_audit is endlam.cli.crossing_audit
    tracer.uninstall()
    after = (endlam.cli.crossing_audit, endlam.lamination.crossing_audit,
             endlam.lamination.GeodesicFamily.__dict__["merge"])
    assert after == before
