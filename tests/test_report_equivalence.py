"""Reports on the canonical towers against reports frozen at earlier commits.

The frozen files hold ``toruskms report --format json`` output at a reduced
configuration.  ``report_*_reduced.json`` predate the batched moment oracle,
which may round a moment differently in the last bits, so numbers are
compared to 1e-12 and every row must keep its identity and verdict.
``report_*_rows_parent.json`` predate the int-tuple word engine, which must
not move any row: their checks are compared field by field with ``==``.
``report_line_seed302_rows_parent.json`` predates the plain-Python word
engine; at d = k = 1 every phase dot is a single product, so that engine must
match it bit for bit too.  ``report_planar_seed302_rows_parent.json`` is
the planar tower at the default sizes, where a word engine that summed its
phase dots in another order once moved the C05 level 3 row in the last bit;
it was written from the repository root by

    PYTHONPATH=src python -m toruskms.cli report \
        --scenario scenarios/planar_tower.json --format json --seed 302 \
        --out tests/data/report_planar_seed302_rows_parent.json

``report_cubic_rows_parent.json`` is the benchmark's d = 3 tower with its
point thread, the only d = 3 report gate.  It pins C04 rows where the moment
spectrum floor ties the Fejer density minimum and rows where it lies below,
frozen before the certificate dropped the density half; it was written from
the repository root by

    PYTHONPATH=src python -m toruskms.cli report \
        --scenario perfbench/data/cubic_tower.json \
        --thread perfbench/data/cubic_thread.json \
        --s-samples 1 --moment-box 4 --seed 0 --format json \
        --out tests/data/report_cubic_rows_parent.json

The config echo is never compared, because it holds the paths the report was
run with.

``report_line_reduced_parent.csv`` and ``.txt`` hold the bytes of the CSV and
text renderings, which echo no paths, and are compared byte for byte.  They
were written from the repository root by

    PYTHONPATH=src python -m toruskms.cli report \
        --scenario scenarios/line_tower.json --thread scenarios/point_thread.json \
        --seed 0 --samples 10 --s-samples 5 --moment-box 3 \
        --format csv --out tests/data/report_line_reduced_parent.csv

and the same command with ``--format text`` and ``.txt``.

C12 (the solenoid state against its quadrature oracle) was added after every
file here but ``report_planar_point_rows_parent.json`` was frozen.  Its rows,
and its lines in the CSV and text bytes, are dropped by check id before
comparing with those files; every other row and line is compared as before.
The two C07 values of ``report_cubic_rows_parent.json`` were re-frozen
when ``psi_eval`` became ``state_eval`` of ``normalized_nu``: that route
rounds e * (P * M) where the old one rounded (e * P) * M, for the weight e,
the Laplace factor P and the moment M, and both rows are rounding noise
around a true 0.

Later, C05 and C11 came to draw their words with one generator call per kind
of draw for all instances, and C03 to take its closed-form moments from one
``moments(N)`` call per measure.  So these rows were re-frozen, and no other:
every C05 and C11 row and the C03 level 0 row, in each ``*_rows_parent.json``
file and in the CSV and text bytes, and the C03 level 3 row of
``report_cubic_rows_parent.json``.  The C05 and C11 rows moved because their
draws did.  The C03 rows are round-trip defects near 3e-16 around a true 0.
Their draws did not change, but a batch rounds its atomic moments and
multipliers through other BLAS kernels than a single index does, so they
moved in the last bits.

Later still, C05 came to raise each b's exponents so that ab has gauge
degree 0, and ``numeric_limit_mu`` came to read its values from
``defect_measure_cts``.  So every C05 row (its quantity names the
degree-matched pairs) and every C10 row that moved were re-frozen in each
file here, and no other row.  The C10 rows moved in their last 10 to 13
digits, because the defect multiplier rounds its product in another order.

Later still, C01's wall-clock budget row, which always read 30.0 / 30.0 /
0.0, was deleted from the report, and so from every file here: one JSON row,
one CSV line and one text line, and nothing else.  And the geometric
transforms and both defect measures came to share one step factor and one
row-wise product.  So the three C04 "defect positivity" rows of
``report_cubic_rows_parent.json`` (levels 1 to 3, where k = 2) were
re-frozen, and no other row: the continuous defect had multiplied its k
factors column by column, and rounds them in another order now.  They moved
by about 1e-16, or in the 7th digit of a value near 1e-9.  At k = 1 a
product has one factor, so no line-tower row moved.

Later still, C05 came to twist, in each pair, the word whose factor
e^(-beta (p - q).r) is at most 1, swapping a and b where (p_a - q_a).r < 0,
so that a tower with a large r cannot overflow the twist.  So the C05 rows
that moved were re-frozen, and no other row: in each ``*_rows_parent.json``
file and in the CSV and text bytes.  Their draws did not change; the same
pairs are evaluated in the other order, and the residuals are rounding noise
below 2e-16 around a true 0.

``report_planar_point_rows_parent.json`` is the planar tower with the point
thread of ``perfbench/data/planar_point_thread.json`` at the default sizes.
The planar uniform thread's moments vanish off n = 0, which hides a phase
bug from C05; this file pins C05 and C11 on planar with a state whose
moments do not.  It was written from the repository root, before the word
engine became the batched array kernels, by

    PYTHONPATH=src python -m toruskms.cli report \
        --scenario scenarios/planar_tower.json \
        --thread perfbench/data/planar_point_thread.json \
        --format json --seed 0 --out tests/data/report_planar_point_rows_parent.json

When the word engine became the batched array kernels (one call per stage
for all of C11's instances and for each level's C05 pairs), no row of any
file here moved and none was re-frozen: the kernels repeat the plain-Python
engine's floating-point operations in the same order.

Later still, the states came to be evaluated on a packed word batch (C05's
pairs, C07's words and their embeddings and C12's words, one moments call
per level and state), and the positivity certificate to take the moment
matrix's eigenvalues alone (LAPACK's eigenvalue-only path, ``eigvalsh``,
where ``eigh`` had computed the eigenvectors too), and C04's certificate row
to read "(least moment-matrix eigenvalue)" where it named a Fejer density
that no code computes.  So these rows were re-frozen, and no other, every
one passing; C11 kept every bit, although it now makes one kernel call per
stage for all levels.  The C04 "nu_mu" rows moved in their text and in the
last bits of their value, the other C04 rows (the defect floors) in the last
bits; the C05, C07 and C12 values are rounding noise around a true 0 or in
the last bits, since a batch rounds its atomic moments through other BLAS
kernels than one index does.

* ``report_line_rows_parent.json`` and the CSV and text bytes: C04 levels
  1-4, both rows each (nu_mu 0.7329913638677138 -> 0.732991363867714, ...,
  defect floor at level 1 5.022573728700974e-07 -> 5.022573728677502e-07);
  C05 levels 1 and 2 (1.2266347333466993e-18 -> 8.673617379884035e-19 and
  1.7482234731686756e-18 -> 1.734723475976807e-18).  The text file moved in
  the four C04 text lines and the two C05 lines.
* ``report_planar_rows_parent.json``: the C04 nu_mu text at levels 1-3;
  C05 levels 1 and 3 (2.662763643835588e-23 -> 2.658584740147398e-23 and
  6.133173666733497e-19 -> 4.84869951806108e-19).
* ``report_line_seed302_rows_parent.json``: C04 levels 1-4, both rows each.
* ``report_planar_seed302_rows_parent.json``: the C04 nu_mu text at levels
  1-3 only.
* ``report_planar_point_rows_parent.json``: the C04 nu_mu rows at levels 1-3
  and the level 3 defect floor; C05 level 3 (5.003707553108401e-17 ->
  5.003707553108402e-17); C07 level 1 (2.4723613458141377e-18 ->
  2.168404344971009e-18); C12 level 2 (2.063614717557648e-15 ->
  2.0565840026933854e-15).
* ``report_cubic_rows_parent.json``: C04 levels 1-3, both rows each (defect
  floor at level 2 -6.046294187959222e-16 -> -1.0075372085675382e-15);
  C07 level 1 (1.5993360207877823e-17 -> 1.5993360207877826e-17).
* ``report_line_reduced.json`` and ``report_planar_reduced.json``: the C04
  nu_mu text alone (4 and 3 rows); their numbers are within 1e-12 of the
  files as they were and were left as they were.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from toruskms.cli import main

ROOT = Path(__file__).resolve().parent.parent
REDUCED = ["--samples", "10", "--s-samples", "5", "--moment-box", "3"]
NUMERIC = ("value_re", "value_im", "reference_re", "reference_im", "residual", "bound")
ADDED = "C12"


def _frozen_rows(payload: dict) -> list:
    return [row for row in payload["checks"] if row["check_id"] != ADDED]


def _frozen_lines(data: bytes) -> bytes:
    """The CSV or text bytes without the lines of the check added since the freeze."""
    kept, inside = [], False
    for line in data.splitlines(keepends=True):
        if not line.startswith(b" "):  # a text header or verdict, or any CSV line
            inside = line.startswith(f"[{ADDED}]".encode())
        if not (inside or line.startswith(f"{ADDED},".encode())):
            kept.append(line)
    return b"".join(kept)


@pytest.mark.parametrize("tower, thread", [("line", "point_thread.json"), ("planar", None)])
def test_report_matches_frozen_rows(tower, thread, tmp_path):
    out = tmp_path / "report.json"
    args = ["report", "--scenario", str(ROOT / "scenarios" / f"{tower}_tower.json"),
            "--format", "json", "--out", str(out), *REDUCED]
    if thread is not None:
        args += ["--thread", str(ROOT / "scenarios" / thread)]
    assert main(args) == 0
    got = json.loads(out.read_text())
    frozen = json.loads((ROOT / "tests" / "data" / f"report_{tower}_reduced.json").read_text())
    assert got["overall_pass"] == frozen["overall_pass"]
    assert len(_frozen_rows(got)) == len(frozen["checks"])
    for new, old in zip(_frozen_rows(got), frozen["checks"]):
        for key in ("check_id", "level", "quantity", "pass"):
            assert new[key] == old[key], (old["check_id"], old["level"], key)
        for key in NUMERIC:
            assert abs(new[key] - old[key]) <= 1e-12, (old["check_id"], old["level"], key)


@pytest.mark.parametrize(
    "tower, thread, seed, sizes, frozen_name",
    [
        pytest.param("line", "point_thread.json", 0, REDUCED, "report_line_rows_parent.json",
                     id="line-point_thread.json"),
        pytest.param("planar", None, 0, REDUCED, "report_planar_rows_parent.json",
                     id="planar-None"),
        pytest.param("line", "point_thread.json", 302, REDUCED,
                     "report_line_seed302_rows_parent.json", id="line-point_thread.json-seed302"),
        pytest.param("planar", None, 302, [], "report_planar_seed302_rows_parent.json",
                     id="planar-None-seed302-default-sizes"),
        pytest.param("planar", "perfbench/data/planar_point_thread.json", 0, [],
                     "report_planar_point_rows_parent.json",
                     id="planar-planar_point_thread.json-default-sizes"),
        pytest.param("perfbench/data/cubic", "perfbench/data/cubic_thread.json", 0,
                     ["--s-samples", "1", "--moment-box", "4"], "report_cubic_rows_parent.json",
                     id="cubic-cubic_thread.json"),
    ],
)
def test_report_rows_equal_parent_rows_exactly(tower, thread, seed, sizes, frozen_name, tmp_path):
    # a tower or thread given with a directory is relative to the root, else to scenarios/
    where = lambda name: ROOT / name if "/" in name else ROOT / "scenarios" / name
    out = tmp_path / "report.json"
    args = ["report", "--scenario", str(where(f"{tower}_tower.json")),
            "--format", "json", "--out", str(out), "--seed", str(seed), *sizes]
    if thread is not None:
        args += ["--thread", str(where(thread))]
    assert main(args) == 0
    got = json.loads(out.read_text())
    frozen = json.loads((ROOT / "tests" / "data" / frozen_name).read_text())
    assert got["overall_pass"] == frozen["overall_pass"]
    # a file frozen before C12 was added holds none of its rows
    has_added = any(row["check_id"] == ADDED for row in frozen["checks"])
    assert (got["checks"] if has_added else _frozen_rows(got)) == frozen["checks"]


@pytest.mark.parametrize("fmt, suffix", [("csv", "csv"), ("text", "txt")])
def test_line_report_bytes_equal_frozen_bytes(fmt, suffix, tmp_path):
    out = tmp_path / f"report.{suffix}"
    args = ["report", "--scenario", str(ROOT / "scenarios" / "line_tower.json"),
            "--thread", str(ROOT / "scenarios" / "point_thread.json"), "--seed", "0",
            *REDUCED, "--format", fmt, "--out", str(out)]
    assert main(args) == 0
    frozen = ROOT / "tests" / "data" / f"report_line_reduced_parent.{suffix}"
    assert _frozen_lines(out.read_bytes()) == frozen.read_bytes()
