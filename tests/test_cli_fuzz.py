"""Argv fuzzing: every argv drawn from a small grammar ends in exit 0, 1 or 2.

The grammar mixes valid and invalid values: primes and non-primes up to 7,
good and bad ring and space specs, small search budgets, and options that
are sometimes missing.  Sizes stay inside the documented caps, so every
example is cheap; the property is that no input escapes as an exception.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from nonlift.cli import main

PRIMES = ["-1", "0", "1", "2", "3", "4", "5", "6", "7", "x", ""]
# incidence_config over P^3 costs seconds at p = 7, so config stops at 6
CONFIG_PRIMES = PRIMES[:8] + ["x"]
RINGS = ["zpk:1", "zpk:2", "zpk:3", "fpt:1", "fpt:2", "fpt:3",
         "zpk", "zpk:", "zpk:x", "fpt:0", "fpt:-1", "zpk:9", "zpk:2:3", "abc:2", ""]
BUDGETS = ["-1", "0", "1", "50", "2000", "x"]
FORMATS = ["text", "json", "yaml"]
SMALL = ["-1", "0", "1", "2", "3", "5", "x"]
SPACES = ["ps:2", "quadric:3", "grass:2,4", "flag:3", "construction-two:3",
          "construction-one:flag:3", "construction-one:ps:2", "ps", "ps:x", "ps:-1",
          "grass:1", "grass:a,b", "foo:3", "construction-one:", "construction-two:4", ""]


def _verb(words, required=(), **choices):
    """`words` plus each option with a drawn value; options not `required`
    may be absent (the free token lists below drop required ones too)."""
    parts = []
    for name, values in choices.items():
        option = st.sampled_from(values).map(lambda v, flag=f"--{name}": [flag, v])
        parts.append(option if name in required else st.one_of(st.just([]), option))
    return st.tuples(*parts).map(lambda drawn: list(words) + [t for part in drawn for t in part])


ARGV = st.one_of(
    _verb(["lift", "propagate"], ("p",), p=PRIMES, ring=RINGS, format=FORMATS),
    # brute always carries a small budget: the default is ten million nodes
    st.tuples(_verb(["lift", "brute"], ("p",), p=PRIMES, ring=RINGS, format=FORMATS),
              st.sampled_from(BUDGETS)).map(lambda t: t[0] + ["--budget", t[1]]),
    _verb(["lift", "check"], ("p",), p=PRIMES, ring=RINGS, format=FORMATS,
          map=["no-such-dir/map.json"]),
    _verb(["geom", "count"], ("dim", "p"), dim=["2", "3", "4", "x"], p=PRIMES, format=FORMATS),
    _verb(["geom", "config"], ("dim", "p"), dim=["2", "3", "4", "x"], p=CONFIG_PRIMES,
          format=FORMATS),
    _verb(["geom", "mp"], ("p",), p=PRIMES, format=FORMATS),
    _verb(["motive", "ps"], ("dim",), dim=SMALL + ["3000"], format=FORMATS),
    _verb(["motive", "quadric"], ("dim",), dim=SMALL, format=FORMATS),
    _verb(["motive", "grass"], ("r", "m"), r=SMALL, m=SMALL, format=FORMATS),
    _verb(["motive", "flag"], ("m",), m=SMALL, format=FORMATS),
    _verb(["motive", "construction-one"], ("space",), space=SPACES,
          center=["diagonal", "frobenius-graph", "nowhere"], format=FORMATS),
    _verb(["motive", "construction-two"], ("p",), p=PRIMES, format=FORMATS),
    _verb(["motive", "invariants"], ("space",), space=SPACES, format=FORMATS),
    st.lists(st.sampled_from(["lift", "geom", "motive", "brute", "--p", "2", "--help", "x"]),
             max_size=4),
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(ARGV)
def test_argv_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
