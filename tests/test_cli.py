"""Command-line behavior: output text, exit codes, determinism, --out."""

import argparse
import hashlib
import itertools
import json
import re
import subprocess
import sys
import time

import pytest

from nonlift import IncidenceConfig, certificate_parse, mp_configuration
from nonlift.cli import COMMANDS, SPACES, main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_geom_count_text(capsys):
    code, out, _ = run(capsys, "geom", "count", "--dim", "3", "--p", "2")
    assert code == 0
    assert out == "points: 15, lines: 35, planes: 15\n"
    code, out, _ = run(capsys, "geom", "count", "--dim", "2", "--p", "3")
    assert out == "points: 13, lines: 13\n"


def test_geom_count_json(capsys):
    code, out, _ = run(capsys, "geom", "count", "--dim", "3", "--p", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"dim": 3, "p": 3, "points": 40, "lines": 130, "planes": 40}


def test_geom_count_is_closed_form(capsys):
    p = 1009
    start = time.perf_counter()
    code, out, _ = run(capsys, "geom", "count", "--dim", "3", "--p", str(p), "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 0
    points = 1 + p + p**2 + p**3
    lines = 1 + p + 2 * p**2 + p**3 + p**4
    assert json.loads(out) == {"dim": 3, "p": p, "points": points, "lines": lines, "planes": points}


def test_geom_config_text(capsys):
    code, out, _ = run(capsys, "geom", "config", "--dim", "2", "--p", "2")
    assert code == 0
    assert out == "points: 7, lines: 7, inclusions: 21\n"


def test_geom_mp(capsys):
    code, out, _ = run(capsys, "geom", "mp", "--p", "3")
    assert code == 0
    assert out == "points: 9, lines: 12, inclusions: 35\n"
    code, out, _ = run(capsys, "geom", "mp", "--p", "3", "--format", "json")
    doc = json.loads(out)
    assert doc == mp_configuration(3).to_json()
    assert IncidenceConfig.from_json(doc).points == mp_configuration(3).points


def test_lift_propagate_blocked_exit_2(capsys):
    code, out, _ = run(capsys, "lift", "propagate", "--p", "2", "--ring", "zpk:2")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "lift propagation certificate"
    assert lines[-1].startswith("obstruction p·1 = 2 ≠ 0 in Z/4")


def test_lift_propagate_open_exit_0(capsys):
    code, out, _ = run(capsys, "lift", "propagate", "--p", "2", "--ring", "fpt:2")
    assert code == 0
    assert out.splitlines()[-1] == "no obstruction"
    code, out, _ = run(capsys, "lift", "propagate", "--p", "5", "--ring", "zpk:1")
    assert code == 0


def test_lift_propagate_json_is_a_certificate(capsys):
    code, out, _ = run(capsys, "lift", "propagate", "--p", "3", "--ring", "zpk:2", "--format", "json")
    assert code == 2
    doc = json.loads(out)
    trace, obstruction = certificate_parse(doc)
    assert trace.p == 3
    assert obstruction.verdict == "non-liftable"
    assert doc["obstruction"] == {"element": 3, "isZero": False}


def test_lift_brute_text(capsys):
    code, out, _ = run(capsys, "lift", "brute", "--p", "2", "--ring", "zpk:2")
    assert code == 0
    assert out.splitlines()[0] == "maps found: 0"
    assert out.splitlines()[1] == "nodes explored: 12"
    code, out, _ = run(capsys, "lift", "brute", "--p", "2", "--ring", "fpt:2")
    lines = out.splitlines()
    assert lines[0] == "maps found: 1"
    assert lines[2] == "map 1:"
    assert "  (1:1:1) -> (1:1:1)" in lines


def test_lift_brute_json(capsys):
    code, out, _ = run(capsys, "lift", "brute", "--p", "2", "--ring", "fpt:2", "--format", "json")
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["nodes_explored"] == 12
    assert doc["frame"] == "standard"
    assignments = doc["maps"][0]["assignments"]
    assert len(assignments) == 7
    assert assignments[0] == {"point": [0, 0, 1], "image": [[0, 0], [0, 0], [1, 0]]}


def test_lift_check_default_map(capsys):
    code, out, _ = run(capsys, "lift", "check", "--p", "2", "--ring", "zpk:2")
    assert code == 0
    assert out.splitlines()[0] == "violations: 1"
    assert out.splitlines()[1] == "  (0:1:1), (1:0:1), (1:1:0)"
    code, out, _ = run(capsys, "lift", "check", "--p", "2", "--ring", "fpt:2")
    assert out == "violations: 0\n"


def test_lift_check_map_file(capsys, tmp_path):
    points = [
        (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
    ]
    # coordinate rotation: an automorphism, and the bad triple is rotation
    # invariant, so the count stays at one
    doc = {
        "assignments": [
            {"point": list(c), "image": [c[2], c[0], c[1]]} for c in points
        ]
    }
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "lift", "check", "--p", "2", "--ring", "zpk:2", "--map", str(path))
    assert code == 0
    assert out.splitlines() == ["violations: 1", "  (0:1:1), (1:0:1), (1:1:0)"]
    # explicit coefficient-tuple images over the truncated polynomial ring
    doc = {
        "assignments": [
            {"point": list(c), "image": [[v, 0] for v in c]} for c in points
        ]
    }
    path = tmp_path / "tuples.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "lift", "check", "--p", "2", "--ring", "fpt:2", "--map", str(path))
    assert code == 0
    assert out == "violations: 0\n"
    # three lifts of (0:0:1) for the line x = 0 over Z/4: undecidable, exit 1
    moved = {(0, 1, 0): [0, 2, 1], (0, 1, 1): [2, 0, 1]}
    doc = {
        "assignments": [
            {"point": list(c), "image": moved.get(c, list(c))} for c in points
        ]
    }
    path = tmp_path / "undecidable.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "lift", "check", "--p", "2", "--ring", "zpk:2", "--map", str(path))
    assert code == 1
    assert out == ""
    assert "undecidable" in err and "Traceback" not in err


def test_lift_check_map_rejects_non_integer_coordinates(capsys, tmp_path):
    points = [
        (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
    ]
    # one bad entry for (1:0:1) each time: a point coordinate that is not an
    # integer, or an F_2[t]/(t^2) image coefficient that is not one
    bad_entries = [
        {"point": ["x", 0, 1], "image": [[1, 0], [0, 0], [1, 0]]},
        {"point": [1.5, 0, 1], "image": [[1, 0], [0, 0], [1, 0]]},
        {"point": [1, 0, 1], "image": [["a", 0], [0, 0], [1, 0]]},
        {"point": [1, 0, 1], "image": ["10", [0, 0], [1, 0]]},
        {"point": [True, 0, 1], "image": [[1, 0], [0, 0], [1, 0]]},
    ]
    for bad in bad_entries:
        doc = {
            "assignments": [
                bad if c == (1, 0, 1) else {"point": list(c), "image": [[v, 0] for v in c]}
                for c in points
            ]
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(
            capsys, "lift", "check", "--p", "2", "--ring", "fpt:2", "--map", str(path)
        )
        assert code == 1, bad
        assert out == "", bad
        assert "must be integers" in err and "Traceback" not in err, bad


def test_lift_check_map_rejects_another_primes_map(capsys, tmp_path):
    # the trivial lift of P^2(F_3) over Z/9 reduces mod 2 onto repeated
    # points; read at p = 2 it once printed three violations and exit 0
    f3_points = [c for c in itertools.product(range(3), repeat=3)
                 if any(c) and c[next(i for i, v in enumerate(c) if v)] == 1]
    assert len(f3_points) == 13
    f2_points = [c for c in f3_points if max(c) == 1]
    repeated = f2_points + [(1, 0, 1)]
    cases = [
        (f3_points, "coordinate outside [0, 2)"),
        (repeated, "assigns (1:0:1)/F2 twice"),
    ]
    for points, message in cases:
        doc = {"assignments": [{"point": list(c), "image": list(c)} for c in points]}
        path = tmp_path / "other_prime.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(
            capsys, "lift", "check", "--p", "2", "--ring", "zpk:2", "--map", str(path)
        )
        assert (code, out) == (1, ""), message
        assert message in err and "Traceback" not in err


def test_motive_ps_text(capsys):
    code, out, _ = run(capsys, "motive", "ps", "--dim", "3")
    assert code == 0
    assert out == (
        "name: P^3\n"
        "dimension: 3\n"
        "class: 1 + L + L^2 + L^3\n"
        "coefficients: 1, 1, 1, 1\n"
        "Picard number: 1\n"
    )


def test_motive_construction_one(capsys):
    code, out, _ = run(capsys, "motive", "construction-one", "--space", "flag:3")
    assert code == 0
    assert "coefficients: 1, 5, 11, 14, 11, 5, 1" in out
    assert "Picard number: 5" in out
    code, diag, _ = run(
        capsys, "motive", "construction-one", "--space", "flag:3", "--center", "diagonal"
    )
    assert "coefficients: 1, 5, 11, 14, 11, 5, 1" in diag


def test_motive_construction_two(capsys):
    code, out, _ = run(capsys, "motive", "construction-two", "--p", "2")
    assert code == 0
    assert "coefficients: 1, 51, 51, 1" in out
    code, out, _ = run(capsys, "motive", "construction-two", "--p", "2", "--format", "json")
    doc = json.loads(out)
    assert doc == {"name": "config-blowup(P^3, p=2)", "dim": 3, "coeffs": [1, 51, 51, 1]}


def test_motive_invariants(capsys):
    code, out, _ = run(capsys, "motive", "invariants", "--space", "construction-one:quadric:3")
    assert code == 0
    lines = out.splitlines()
    assert "betti: 1, 0, 3, 0, 5, 0, 6, 0, 5, 0, 3, 0, 1" in lines
    assert "picard: 3" in lines
    assert "euler: 24" in lines
    assert "palindromic: true" in lines
    code, out, _ = run(
        capsys, "motive", "invariants", "--space", "grass:2,4", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["class"]["name"] == "Gr(2,4)"
    assert doc["invariants"]["picard"] == 1


def test_motive_quadric_grass_flag(capsys):
    _, out, _ = run(capsys, "motive", "quadric", "--dim", "4")
    assert "coefficients: 1, 1, 2, 1, 1" in out
    _, out, _ = run(capsys, "motive", "grass", "--r", "2", "--m", "4")
    assert "name: Gr(2,4)" in out
    _, out, _ = run(capsys, "motive", "flag", "--m", "4")
    assert "coefficients: 1, 3, 5, 6, 5, 3, 1" in out


def test_out_duplicates_stdout(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "lift", "propagate", "--p", "2", "--ring", "zpk:2",
        "--format", "json", "--out", str(path),
    )
    assert code == 2
    assert path.read_bytes() == out.encode("utf-8")


def test_byte_identical_reruns(capsys):
    for args in (
        ("geom", "config", "--dim", "3", "--p", "2", "--format", "json"),
        ("motive", "invariants", "--space", "construction-one:flag:3"),
    ):
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


# (argv, exit code, sha256 of stdout), captured before the geometry kernels
# were merged; MAP is a perturbed lift of P^2(F_7) to Z/49 written by the test
GOLDEN = [
    ("lift propagate --p 3 --ring zpk:2", 2,
     "6a51a696e91d81a07b7cf463b8a649305eae58847649c5c9f5569d3870cdcbe0"),
    ("lift propagate --p 3 --ring zpk:2 --format json", 2,
     "cc5c5d4454febd89f0335eab9191b718342362f408034276cef2335a6a567297"),
    ("lift propagate --p 5 --ring fpt:3 --format json", 0,
     "410f620449e7140b426645494922aa6ec51c92635dc820e19338c22889248f79"),
    ("lift brute --p 3 --ring fpt:2", 0,
     "8e1164616f226dfcece98a890a817ad835039e1c10bf1849614b6f79676bf0a8"),
    ("lift brute --p 3 --ring fpt:2 --format json", 0,
     "1ac20e67e8617a9c9d89846355ea833057c890f58d4f1c21a7b8e1622a14f43a"),
    ("lift check --p 2", 0,
     "12f03d8723e14f10d867e53bdae9cba529e8dcca94e97a33e983429611974e7a"),
    ("lift check --p 7 --ring zpk:2 --map MAP", 0,
     "fb840ff8d3c86ef0c5a1fa077ff4e4a7c841df26a02fff142b18a26c8f63647c"),
    ("geom count --dim 2 --p 3", 0,
     "ff6b6180918633eff74c43ad5f564bf295b8399893b4cd06648beafe8f6a557d"),
    ("geom count --dim 3 --p 3", 0,
     "22c135efa891a32b388590c8e218a4e37f82e52c1c597d900ade43981ad66f18"),
    ("geom config --dim 2 --p 3", 0,
     "12274ad9e4956ba29c32676fd2e209bcfbdde5976491709e309acc693c839b41"),
    ("geom config --dim 3 --p 3", 0,
     "60675cd4e3471c4258fef3baeb90ef0a25d561a4dfff81b87e90dfdd2f320110"),
    ("geom mp --p 7 --format json", 0,
     "b168154a646d38063f253e2ecdd9dbbcbe2d7222525a237159e11d803fe8b474"),
    ("motive invariants --space construction-one:flag:6", 0,
     "92992fdaf2cbda75ba8567d8f859fec4d5d1c4c33e52828a8523740d7085c323"),
    ("motive invariants --space construction-one:flag:6 --format json", 0,
     "fccd59dbd2eacb16699cc8fa0b2903d588d157fdb7f26ad93d803d0587eb99f9"),
    ("lift brute --p 1 --ring zpk:2", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("lift propagate --p 13 --ring fpt:8 --format json", 0,
     "5e09a3208712ce04e63458cc5cb9b2206a22f80de06145474ffd436ea362eff9"),
    ("lift brute --p 2 --ring fpt:4 --format json", 0,
     "0e7597bc4a1a2cb42cd363cef78c6c11056b291a1e64f72ea6454721f3b78e80"),
    ("lift check --p 7 --ring fpt:2 --map FMAP", 0,
     "f67d0164102dcbb9fa2b7ca6b3213afb413056aba1be11b955b028dab2720747"),
    ("geom config --dim 3 --p 5 --format json", 0,
     "42afa4d87005ccf218a09304692793b0d96c970b4c2185363c37df69a91f1979"),
    ("geom config --dim 2 --p 13 --format json", 0,
     "69af85cc2c0dd5e6e285b236da98da974083ea017ac4f9dc24513b4d0550735d"),
    ("geom mp --p 31 --format json", 0,
     "88559a80ce3b4eda3d3c5a865f78c1f343897ceb76fdc2f83701dba1f3aa20e2"),
    # certify sizes: multi-digit stored integers through both renderers
    ("lift propagate --p 887 --ring zpk:3 --format json", 2,
     "037ac92e5298dd7aa3ba7c87343e93a900b03a7a7ad8299f5446d40bc5b96b4a"),
    ("lift propagate --p 499 --ring fpt:3", 0,
     "3270f95b9aa1ba02827ded9c0d79d1a1d6fbd3e9710a8bee9bd4956c77de51d2"),
    ("lift propagate --p 211 --ring fpt:2 --format json", 0,
     "d4b3482b9813950aab445d5bb226ceebecf94c6e74eae98b95179d453a9ce855"),
    # at the PROPAGATE_P_MAX cap over the widest digit layout (8 digits at
    # 73-bit spacing): 14,538,501 bytes that no layout change may alter
    ("lift propagate --p 4999 --ring fpt:8 --format json", 0,
     "c1dd3c4b17abf1971883f6f6c23ed65ea9787d84d77109a4a49d4111828363cd"),
    # the check at the PLANE_P_MAX cap: 47,226 violations in 1,387,558 bytes
    # over Z/169, and none over F_13[t]/(t^8)
    ("lift check --p 13", 0,
     "25a4207e3a2a9ea53f64234d8f9fcc2aa296bda7e15c417716e25c78866907f7"),
    ("lift check --p 13 --ring fpt:8", 0,
     "3c2f6f9a111d0ea8a5513227868ede3cbb03ddce69b047d0a90db94861650106"),
]


def test_golden_outputs(capsys, tmp_path):
    p = 7
    points = [(0, 0, 1)] + [(0, 1, b) for b in range(p)]
    points += [(1, a, b) for a in range(p) for b in range(p)]
    # every point keeps its residue; coordinates move by multiples of p
    # (MAP, over Z/p^2) or of t (FMAP, over F_p[t]/(t^2))
    maps = {
        "MAP": lambda i, j, v: v + p * ((i + j) % 3),
        "FMAP": lambda i, j, v: [v, (i + j) % 3],
    }
    paths = {}
    for name, image in maps.items():
        doc = {
            "assignments": [
                {"point": list(c), "image": [image(i, j, v) for j, v in enumerate(c)]}
                for i, c in enumerate(points)
            ]
        }
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    for argv, code, digest in GOLDEN:
        args = [str(paths.get(a, a)) for a in argv.split()]
        got, out, _ = run(capsys, *args)
        assert (got, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, digest), argv


def test_golden_certificates_are_read_back(capsys):
    for argv, code, _ in GOLDEN:
        if argv.startswith("lift propagate") and argv.endswith("--format json"):
            got, out, _ = run(capsys, *argv.split())
            assert got == code, argv
            verdict = certificate_parse(out)[1].verdict
            assert verdict == ("non-liftable" if code == 2 else "liftable-not-excluded"), argv


def test_usage_errors_exit_1(capsys):
    cases = [
        ("lift", "propagate", "--p", "2", "--ring", "zpk"),
        ("lift", "propagate", "--p", "2", "--ring", "qp:2"),
        ("lift", "propagate", "--p", "2", "--ring", "zpk:x"),
        ("lift", "propagate", "--p", "4", "--ring", "zpk:2"),
        ("geom", "count", "--dim", "5", "--p", "2"),
        ("motive", "invariants", "--space", "mystery:3"),
        ("motive", "invariants", "--space", "flag"),
        ("motive", "flag", "--m", "9"),
        ("motive", "grass", "--r", "600", "--m", "1200"),
        ("motive", "ps", "--dim", "100000000"),
        ("motive", "quadric", "--dim", "2501"),
        ("motive", "construction-one", "--space", "ps:1251"),
        ("motive", "quadric", "--dim", "0"),
        ("lift", "brute", "--p", "101"),
        ("lift", "check", "--p", "101"),
        ("lift", "brute", "--p", "3", "--ring", "zpk:5"),
        ("lift", "propagate", "--p", "5003"),
        ("lift", "propagate", "--p", "2", "--ring", "zpk:9"),
        ("lift", "propagate", "--p", "2", "--ring", "fpt:1000000000000"),
        ("lift", "propagate", "--p", "2305843009213693951"),
        ("geom", "count", "--dim", "2", "--p", "2305843009213693951"),
        ("geom", "config", "--dim", "2", "--p", "67"),
        ("geom", "config", "--dim", "3", "--p", "11"),
        ("geom", "mp", "--p", "67"),
        ("geom", "mp", "--p", "211"),
        # deep nests: the first refused by the center check, the second by
        # the dimension cap at its second step
        ("motive", "invariants", "--space", "construction-one:" * 1200 + "ps:1"),
        ("motive", "invariants", "--space", "construction-one:" * 1200 + "ps:1000"),
    ]
    for args in cases:
        code, _, err = run(capsys, *args)
        assert code == 1, args
        assert "error" in err.lower(), args


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "geom", "--help")[0] == 0


def test_help_at_every_level_lists_the_table(capsys):
    assert sum(len(commands) for _, commands in COMMANDS.values()) == 13
    levels = [((), COMMANDS)] + [((group,), commands) for group, (_, commands) in COMMANDS.items()]
    for words, entries in levels:
        for flag in ("--help", "-h"):
            code, out, err = run(capsys, *words, flag)
            assert (code, err) == (0, ""), words
            for name, (help_line, _) in entries.items():
                assert re.search(rf"^  {re.escape(name)} +{re.escape(help_line)}$", out, re.M), name
    for group, (_, commands) in COMMANDS.items():
        for command in commands:
            code, out, _ = run(capsys, group, command, "--help")
            assert code == 0 and out.startswith(f"usage: nonlift {group} {command} "), command


def test_missing_or_unknown_word_exits_1(capsys):
    for args in [(), ("x",), ("--p", "2"), ("geom",), ("geom", "x"), ("lift", "--p", "2"),
                 ("motive", "construction"), ("geom", "ps", "--dim", "2")]:
        code, out, err = run(capsys, *args)
        assert (code, out) == (1, ""), args
        assert "error" in err, args


def test_space_commands_match_their_invariants_class(capsys):
    values = {"dim": 3, "r": 2, "m": 4, "p": 2}
    assert set(SPACES) <= set(COMMANDS["motive"][1])
    for kind, (_, options, _) in SPACES.items():
        flags = [word for option in options for word in (f"--{option}", str(values[option]))]
        code, out, _ = run(capsys, "motive", kind, *flags)
        spec = f"{kind}:{','.join(str(values[option]) for option in options)}"
        _, table, _ = run(capsys, "motive", "invariants", "--space", spec)
        assert code == 0 and out.splitlines() == table.splitlines()[:5], kind


def test_a_run_builds_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "motive", "ps", "--dim", "2")[0] == 0
    assert run(capsys, "lift", "propagate", "--p", "2")[0] == 2
    assert len(built) == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nonlift.cli", "geom", "count", "--dim", "2", "--p", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "points: 7, lines: 7\n"


def test_closed_pipe_exits_1_without_traceback():
    # the 588 KB certificate is more than a pipe buffer, so the write after
    # the reader hangs up always fails
    proc = subprocess.Popen(
        [sys.executable, "-m", "nonlift.cli", "lift", "propagate", "--p", "877",
         "--ring", "zpk:2", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode("utf-8")
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err
