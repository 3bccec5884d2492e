"""Run bellsim with its test extras unimportable.

    python tests/without_extras.py                  # every CLI command once
    python tests/without_extras.py SCRIPT [ARG ...]  # SCRIPT, as python runs it

bellsim needs numpy alone at run time.  An import hook placed first on
``sys.meta_path`` refuses every import of scipy, hypothesis, pytest, sympy
and mpmath and records it, so an import that a ``try/except ImportError``
swallows still fails the run: the exit code is 1 when any import was
refused.  The checkout's ``src`` comes first on ``sys.path``.  Standard
library only.
"""

import io
import runpy
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MODELS = REPO / "demos" / "models"
EXTRAS = ("scipy", "hypothesis", "pytest", "sympy", "mpmath")
refused = []


class RefuseExtras:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] in EXTRAS:
            refused.append(name)
            raise ModuleNotFoundError(f"import of {name} refused", name=name)
        return None


def loaded(*prefixes):
    return sorted(m for m in sys.modules if m.startswith(prefixes))


def check_surface(out: Path) -> None:
    """Each CLI command in process; each must exit 0.  The QM ``simulate``
    of ``tests/golden/qm_run.csv`` and the threshold-model ``simulate`` of
    ``tests/golden/threshold_run.csv`` must also reproduce those files'
    bytes at two and three workers; the threshold run's 16 blocks split
    unevenly over three threads on a host with three or more CPUs.  The
    block kernel only compares uniforms with the cumulative cells of each
    pair's joint table, and no BLAS forms them: ``math.cos`` gives the QM
    cells, and one ``math.fsum`` per cell sums the threshold model's
    products of 0/1 response tables, so the committed streams hold on
    every dispatch path and numpy release this runs on."""
    import bellsim  # noqa: F401
    from bellsim.cli import main

    def cli(*argv):
        argv = [str(a) for a in argv]
        with redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == 0, f"bellsim {' '.join(argv)} exited with {code}"

    # Only a search that forks imports multiprocessing, and none starts a
    # process pool or calls np.unique, whose first call imports numpy.ma.
    # numpy loads numpy.random lazily; importing bellsim must not pay for it.
    assert not (mods := loaded("multiprocessing", "concurrent.futures.process",
                               "numpy.random")), mods
    for workers in ("1", "2"):
        cli("adversary-search", "--family", "threshold-detection", "--seed", "1",
            "--restarts", "4", "--max-evals", "200", "--n-lambda", "90", "--workers", workers)
        assert not (mods := loaded("concurrent.futures.process", "numpy.ma.")), mods
    for model in sorted(MODELS.glob("*.json")):
        for mode in ("solution1", "solution2", "solution3"):
            cli("verify-bounds", "-vv", "--model", model, "--mode", mode)
    qm = ("--eta", "0.75", "--f", "0.9", "--F", "0.95")
    cli("simulate", *qm, "--trials", "10000", "--seed", "42", "--workers", "2",
        "--out", out / "run.csv")
    # The argv of qm_run.csv's manifest and of threshold_run.csv's test, at
    # two and three workers.
    for workers in ("2", "3"):
        cli("simulate", *qm, "--trials", "5000", "--seed", "314", "--workers", workers,
            "--out", out / "qm_run.csv")
        cli("simulate", "--model", MODELS / "threshold_adversary.json", "--trials", "200000",
            "--seed", "7", "--workers", workers, "--out", out / "threshold_run.csv")
        for name in ("qm_run.csv", "threshold_run.csv"):
            golden = REPO / "tests" / "golden" / name
            assert (out / name).read_bytes() == golden.read_bytes(), \
                f"the sampled stream at {workers} workers no longer reproduces {golden.name}"
    cli("analyze", "--counts", out / "run.csv", "--out", out / "report.json")
    cli("analyze", "--counts", out / "run.csv", "--format", "csv")
    cli("qm-predict", *qm)
    cli("qm-predict", *qm, "--format", "csv")
    cli("sweep", "--eta-values", "0.75", "--f12-values", "1.0", "--F", "0.95", "--seed", "7",
        "--min-coincidences", "1000", "--workers", "2", "--out", out / "sweep.csv")


if __name__ == "__main__":
    sys.meta_path.insert(0, RefuseExtras)
    script = sys.argv[1:]
    sys.path[:1] = [str(REPO / "src"),
                    str(Path(script[0]).resolve().parent) if script else sys.path[0]]
    try:
        if script:
            sys.argv = script
            runpy.run_path(script[0], run_name="__main__")
        else:
            with tempfile.TemporaryDirectory() as tmp:
                check_surface(Path(tmp))
    finally:
        if refused:
            sys.exit(f"error: bellsim must run on numpy alone; refused {', '.join(refused)}")
