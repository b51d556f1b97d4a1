"""The CLI's file outputs, pinned by digest.

Each digest is the sha256 of a file a ``repro`` command writes:
``seu --json-deterministic`` (flat, sharded over a checkpoint cache, and
a resumed runs-extension), ``characterize --out``/``--json``, the RTL
files of ``hls --out`` and ``eco --report``.  The commands route through
the job API; these files are what a user diffs, so they must not move
when the code path behind a command changes.  Timing columns on stdout
and stderr are not pinned.

The digests were taken from the CLI as it stood before its commands
became job-API clients, and the file passes unchanged on both sides.
The ``characterize`` and ``eco`` digests were re-pinned when
``PLACE_KERNEL_VERSION`` 4 changed the placements behind them (shorter
wires, so lower delays and routed lengths); the commands did not change.
The ``eco`` digest was re-pinned again when ``ECO_KERNEL_VERSION`` went
from 2 to 3 (see ``tests/fabric/test_route_identity.py``): the edit keeps
the warm trees that still fit, so some routes differ; ``nets_ripped``
counts every base net the route re-routed, the overflow cascade's
included (20 -> 93); and the STA cone grows by those of them whose
routed length changed (102 -> 109).
The placement and the timing report are the same.
"""

import hashlib

from repro.cli import main

KERNEL = """
void wavg(const int *x, int *y, int n) {
  const int w[8] = {1, 2, 4, 8, 8, 4, 2, 1};
  for (int i = 7; i < n; i++) {
    int acc = 0;
    for (int t = 0; t < 8; t++) {
      acc += x[i - t] * w[t];
    }
    y[i] = acc >> 5;
  }
}
"""

SEU = ["seu", "--words", "16", "--seed", "5"]
SEU_SHARDED = SEU + ["--shard-size", "15", "--jobs", "2"]

SEU_60 = (
    "5ad25426edacc4be46af7e5ae47fb5cbb99a28665185c5da3100169868ae30ce")
SEU_90 = (
    "e093f8d82ceffc36b9c7f93b612e885127b671e890b158b963e41e175996840c")
CHARACTERIZE_XML = (
    "bcd040467de17b913760d4ceaac558b7222efd39116bfdf0b360e63c69e71fd3")
CHARACTERIZE_JSON = (
    "9a05262e0e0129f248d8205997da6daca73877e7f5e47cb13282e67db9f5ae42")
HLS_RTL = {
    "hermes_fp_lib.vh":
        "3ac149df8124caa663a66369b699b841585d79c38dc5ce3e954f87515d14be0a",
    "wavg.v":
        "76552d2f99a4fb1f319dfd9c8beb8bf74aac49bde4dd474277c0176accb6446a",
}
ECO_REPORT = (
    "fc24de419463588f97280171d64540adf5401e469f06e5579ad111871c33fdba")


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_seu_flat(tmp_path, capsys):
    out = tmp_path / "flat.json"
    assert main(SEU + ["--runs", "60", "--json-deterministic",
                       str(out)]) == 0
    assert _digest(out) == SEU_60


def test_seu_sharded_then_resumed(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    sharded = tmp_path / "sharded.json"
    assert main(SEU_SHARDED + cache + [
        "--runs", "60", "--json-deterministic", str(sharded)]) == 0
    assert _digest(sharded) == SEU_60
    resumed = tmp_path / "resumed.json"
    assert main(SEU_SHARDED + cache + [
        "--runs", "90", "--resume", "--json-deterministic",
        str(resumed)]) == 0
    assert _digest(resumed) == SEU_90


def test_seu_flat_extension_matches_resumed(tmp_path, capsys):
    out = tmp_path / "flat90.json"
    assert main(SEU + ["--runs", "90", "--json-deterministic",
                       str(out)]) == 0
    assert _digest(out) == SEU_90


def test_characterize_library_and_runs(tmp_path, capsys):
    xml = tmp_path / "lib.xml"
    runs = tmp_path / "runs.json"
    assert main(["characterize", "--components", "addsub,logic",
                 "--widths", "8", "--effort", "0.1", "--grid-luts", "1024",
                 "--out", str(xml), "--json", str(runs)]) == 0
    assert _digest(xml) == CHARACTERIZE_XML
    assert _digest(runs) == CHARACTERIZE_JSON


def test_hls_rtl_files(tmp_path, capsys):
    source = tmp_path / "wavg.c"
    source.write_text(KERNEL)
    out = tmp_path / "rtl"
    assert main(["hls", str(source), "--top", "wavg", "--clock", "5",
                 "--out", str(out)]) == 0
    assert {path.name: _digest(path)
            for path in sorted(out.iterdir())} == HLS_RTL


def test_eco_report(tmp_path, capsys):
    report = tmp_path / "eco.json"
    assert main(["eco", "--synth-cells", "300", "--grid-luts", "1024",
                 "--effort", "0.2", "--clock", "50",
                 "--edit-fraction", "0.05", "--report", str(report)]) == 0
    assert _digest(report) == ECO_REPORT
