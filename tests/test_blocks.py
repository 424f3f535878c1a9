"""synth, labelgen and solve build, read and write their rows in blocks.

Rows are built from columns, and solve's input is picked and checked,
1,024 records at a time.  The counts here sit on both sides of a block
boundary, and the rows must be those built one record at a time.
"""

import csv
import io
import json
import math
import random
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from keyedge.cli import main
from keyedge.dataio import (
    LABELGEN_FIELDS, PLAIN_FIELDS, RECORD_FIELDS, SIGMA_KEYS, SOLVE_FIELDS, NoiseModel, SceneConfig,
    generate_scene, labels_to_ground_truth, object_record, observe_scene, parse_calib, parse_label_file,
    read_jsonl, write_jsonl,
)
from keyedge.geometry import KEYEDGES, RATIO_KEYS, CameraIntrinsics, project_keyedges
from oracles import reference_solve_rows

DATA = Path(__file__).parent / "data" / "kitti"

# the CLI's default camera and scene ranges
INTR = CameraIntrinsics(focal_length=721.5377, principal_point=(609.5593, 172.854))
GAMMA_RANGE = (math.radians(-40.0), math.radians(40.0))
NOISES = {
    "none": ([], NoiseModel(kind="none")),
    "gaussian": (["--noise", "gaussian_height", "--sigma-px", "0.5"],
                 NoiseModel(kind="gaussian_height", sigma_px=0.5)),
    "quantization": (["--noise", "pixel_quantization", "--quantum-px", "1.0"],
                     NoiseModel(kind="pixel_quantization", quantum_px=1.0)),
}
COUNTS = [1023, 1024, 1025, 2049]


def run(*argv):
    return main([str(a) for a in argv])


def synth(out, count, *extra, seed=7):
    return run("synth", "--count", count, "--seed", seed, "--out", out, *extra)


def csv_text(rows, fields):
    """What write_csv makes of rows under the header fields."""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return text.getvalue()


def assert_files_hold(out, mirror, rows, fields):
    """out holds rows as JSON lines, and mirror the same rows as CSV."""
    assert out.read_text().splitlines() == [json.dumps(row) for row in rows]
    assert mirror.read_text() == csv_text(rows, fields)


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    """A 2,049-record Gaussian synth file, three blocks long."""
    path = tmp_path_factory.mktemp("blocks") / "scene.jsonl"
    assert synth(path, 2049, *NOISES["gaussian"][0]) == 0
    return path


class TestBlockBoundaries:
    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("count", COUNTS)
    def test_synth_rows_are_object_records(self, tmp_path, count, noise):
        flags, model = NOISES[noise]
        out, mirror = tmp_path / "s.jsonl", tmp_path / "s.csv"
        assert synth(out, count, *flags, "--csv-out", mirror) == 0
        cfg = SceneConfig(count=count, seed=7, gamma_range=GAMMA_RANGE)
        scene = observe_scene(cfg, INTR, model)
        want = []
        for i, pose in enumerate(generate_scene(cfg)):
            obs = replace(project_keyedges(pose, INTR), depths=dict(zip(KEYEDGES, scene.depths[i].tolist())),
                          heights=dict(zip(KEYEDGES, scene.heights[i].tolist())))
            sigmas = None if scene.sigmas is None else dict(zip(SIGMA_KEYS, scene.sigmas[i].tolist()))
            want.append(object_record(i, "Car", pose, INTR, obs, sigmas))
        assert_files_hold(out, mirror, want, PLAIN_FIELDS if scene.sigmas is None else RECORD_FIELDS)

    @pytest.mark.parametrize("skip_hard", [False, True])
    @pytest.mark.parametrize("count", COUNTS)
    def test_labelgen_rows_are_object_records(self, tmp_path, count, skip_hard):
        # count labels over three frames, each under the fixture camera of its frame
        rng = random.Random(count)
        labels, calib = tmp_path / "labels", tmp_path / "calib"
        labels.mkdir()
        calib.mkdir()
        sizes = (count // 3, count // 3, count - 2 * (count // 3))
        for frame, size in enumerate(sizes):
            lines = [
                f"{rng.choice(['Car', 'Van'])} {rng.choice(['0.00', '0.80'])} {rng.choice([0, 1, 2])} 0.00 "
                f"0.00 0.00 10.00 10.00 1.50 1.70 4.00 {rng.uniform(-6.0, 6.0):.2f} 1.65 "
                f"{rng.uniform(8.0, 50.0):.2f} {rng.uniform(-3.1, 3.1):.2f}"
                for _ in range(size)
            ]
            (labels / f"{frame:06d}.txt").write_text("\n".join(lines) + "\n")
            fixture = DATA / "calib" / f"00000{1 + frame % 2}.txt"
            (calib / f"{frame:06d}.txt").write_text(fixture.read_text())
        out, mirror = tmp_path / "l.jsonl", tmp_path / "l.csv"
        assert run("labelgen", "--labels", labels, "--calib", calib, "--out", out, "--csv-out", mirror,
                   *["--skip-hard"] * skip_hard) == 0
        want = []
        for frame in range(3):
            intr = parse_calib((calib / f"{frame:06d}.txt").read_text())
            kept = [label for label in parse_label_file((labels / f"{frame:06d}.txt").read_text())
                    if not (skip_hard and label.is_hard)]
            for gt in labels_to_ground_truth(kept, intr):
                obs = project_keyedges(gt.pose, intr)
                want.append({**object_record(len(want), gt.label.class_name, gt.pose, intr, obs),
                             "frame": frame})
        assert (len(want) < count) == skip_hard
        assert_files_hold(out, mirror, want, LABELGEN_FIELDS)

    @pytest.mark.parametrize("z", ["all", "some", "none"])
    @pytest.mark.parametrize("count", COUNTS)
    def test_solve_rows_match_reference(self, tmp_path, scene_file, count, z):
        records = read_jsonl(scene_file)[:count]
        keep_z = {"all": lambda i: True, "some": lambda i: i % 1000 == 3, "none": lambda i: False}[z]
        src, out, mirror = tmp_path / "r.jsonl", tmp_path / "e.jsonl", tmp_path / "e.csv"
        write_jsonl(src, [{k: v for k, v in rec.items() if k != "z" or keep_z(i)}
                          for i, rec in enumerate(records)])
        assert run("solve", "--in", src, "--out", out, "--csv-out", mirror) == 0
        fields = [f for f in SOLVE_FIELDS if f != "z" or z != "none"]
        assert_files_hold(out, mirror, reference_solve_rows(read_jsonl(src)), fields)

    def test_solve_echoes_values_as_read_across_blocks(self, tmp_path, scene_file):
        # index, class_name and z change type from block to block; each row
        # echoes its record's values as they were read
        records = read_jsonl(scene_file)
        for i, rec in enumerate(records):
            block = i // 1024
            rec["index"] = (i, float(i), str(i))[block] if i != 7 else 2**70
            rec["class_name"] = ("Car", None, ["Van", i])[block] if i != 9 else True
            if block == 0:
                rec["z"] = round(rec["z"])
            elif block == 2:
                del rec["z"]
        src, out, mirror = tmp_path / "r.jsonl", tmp_path / "e.jsonl", tmp_path / "e.csv"
        write_jsonl(src, records)
        assert run("solve", "--in", src, "--out", out, "--csv-out", mirror) == 0
        assert_files_hold(out, mirror, reference_solve_rows(read_jsonl(src)), SOLVE_FIELDS)

    def solve_fails(self, tmp_path, capsys, lines):
        src, out, mirror = tmp_path / "r.jsonl", tmp_path / "e.jsonl", tmp_path / "e.csv"
        src.write_text("".join(line + "\n" for line in lines))
        code = run("solve", "--in", src, "--out", out, "--csv-out", mirror)
        assert not out.exists() and not mirror.exists()
        return code, capsys.readouterr().err

    def test_bad_record_in_second_block_is_named(self, tmp_path, capsys, scene_file):
        records = read_jsonl(scene_file)
        records[1500]["r_bc"] = "x"
        code, err = self.solve_fails(tmp_path, capsys, map(json.dumps, records))
        assert (code, err) == (3, "error: record 1500 (index 1500): r_bc must be a number, got 'x'\n")

    def test_bad_record_before_invalid_json_in_a_later_block(self, tmp_path, capsys, scene_file):
        lines = [json.dumps(rec) for rec in read_jsonl(scene_file)]
        lines[1000] = json.dumps({**json.loads(lines[1000]), "width": -2.0})
        lines[1600] = "{oops"
        code, err = self.solve_fails(tmp_path, capsys, lines)
        assert (code, err) == (3, "error: record 1000 (index 1000): width must be positive, got -2.0\n")

    def test_degenerate_record_in_second_block(self, tmp_path, capsys, scene_file):
        records = read_jsonl(scene_file)
        records[1030].update(dict.fromkeys(RATIO_KEYS, 1.0))
        code, err = self.solve_fails(tmp_path, capsys, map(json.dumps, records))
        assert code == 5
        assert err == "error: record 1030 (index 1030): no usable tuple among ['a', 'b', 'c', 'd']\n"


def peak_growth(argv_of) -> float:
    """Peak traced bytes per record of cli.main(argv_of(count)), between 4,096 and 16,384 records.

    One small run first pays the one-off allocations (lazy imports, caches)
    that would otherwise weigh on the smaller count only.
    """
    assert main(argv_of(100)) == 0
    peaks = []
    for count in (4096, 16384):
        argv = argv_of(count)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return (peaks[1] - peaks[0]) / (16384 - 4096)


class TestBlockMemory:
    def test_synth_memory_per_record(self, tmp_path):
        """synth keeps its scene and the row builder's columns, never its rows.

        The scene is 24 float64 columns (the (N, 6) pose draw, x and y, and
        the (N, 4) depths, heights, ratios and sigmas); the row builder adds
        9 more (index, a class name pointer, gamma, alpha, group and the four
        box edges).  That is 33 columns of 8 bytes, 264 bytes per record.  The
        temporaries of a stage are at most as large as what it keeps, so the
        peak grows by at most 2 * 264 = 528 bytes per record.  Holding every
        record as a dict of Python objects costs about 2,200.
        """
        def argv(count):
            return ["synth", "--count", str(count), "--seed", "1", "--noise", "gaussian_height",
                    "--sigma-px", "0.5", "--out", str(tmp_path / f"s{count}.jsonl")]

        assert peak_growth(argv) <= 2 * 33 * 8

    def test_solve_memory_per_record(self, tmp_path):
        """solve keeps its input columns and the kernel's arrays, never its rows.

        The echo is three 8-byte columns: index as int64, a pointer to the
        class name (each distinct name is held once) and z as float64.  The
        kernel reads R and S, (N, 4), and L and W: 80 bytes.  At its peak
        the kernel holds no more than 22 more (N, 4) float64 arrays: the
        four reference pairs r1, r2, s1 and s2, invert's e1, e2, k1 and k2,
        its five outputs, sigma_d and weight, and at most seven temporaries
        of one expression, 704 bytes; its (N,) columns and bool masks add
        under 32.  So the peak grows by at most 24 + 80 + 704 + 32 = 840
        bytes per record.  Holding every picked value and output cell as a
        Python object costs about 1,200.
        """
        for count in (100, 4096, 16384):
            assert synth(tmp_path / f"s{count}.jsonl", count, *NOISES["gaussian"][0], seed=1) == 0

        def argv(count):
            return ["solve", "--in", str(tmp_path / f"s{count}.jsonl"),
                    "--out", str(tmp_path / f"o{count}.jsonl")]

        assert peak_growth(argv) <= 24 + 80 + 22 * 32 + 32
