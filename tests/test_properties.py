"""Property tests of the analytic columns over the whole valid input box.

M up to 10^4, N and Q up to 64, alpha in [1e-12, 1 - 1e-12] and -40 to
70 dB, for the noncoop, coop and selection schemes.  Hypothesis runs
derandomized with a bounded example count, so every run checks the same
cases.  Switching is left out: its analytic column is an asymptote, not the
miss probability.  The terms that do not depend on the SNR are cached per
operating point; a repeated call must give the same bits, and no cache may
grow past its bound.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from specsense.cli import ScenarioFile, analytic_columns, build_config, main
from specsense.specfun import ConvergenceError

from .test_analytic_caches import caches

SCHEMES = ("noncoop", "coop", "selection")
M = st.integers(1, 10 ** 4)
COUNT = st.integers(1, 64)  # N, n and Q
ALPHA = st.floats(1e-12, 1.0 - 1e-12)
SNR_DB = st.floats(-40.0, 70.0)

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def scenarios(draw):
    """A valid scenario of one of the three schemes."""
    scheme = draw(st.sampled_from(SCHEMES))
    n_users = draw(COUNT) if scheme == "coop" else 1
    return ScenarioFile(scheme=scheme, m=draw(M), alpha=draw(ALPHA),
                        n_users=n_users, n_vote=draw(st.integers(1, n_users)),
                        q=draw(COUNT) if scheme == "selection" else 1)


@PROPERTY
@given(sc=scenarios(), snrs=st.lists(SNR_DB, min_size=2, max_size=2))
def test_analytic_miss_is_a_probability_that_does_not_rise_with_snr(sc, snrs):
    lo, hi = sorted(snrs)
    try:
        config = build_config(sc)
        pf, pmd_lo = analytic_columns(config, lo)
        _, pmd_hi = analytic_columns(config, hi)
    except (ValueError, ConvergenceError):
        return  # a refusal is allowed; any other exception fails the test
    assert 0.0 <= pf <= 1.0
    assert 0.0 <= pmd_hi <= pmd_lo <= 1.0
    again = analytic_columns(config, lo)
    assert [float.hex(v) for v in again] == [float.hex(pf), float.hex(pmd_lo)]
    for cache in caches().values():
        info = cache.cache_info()
        assert info.currsize <= info.maxsize


@st.composite
def analytic_scenario_texts(draw):
    """Scenario text in analytic mode; n above N is left in, so some exit 2."""
    start, stop = sorted(draw(st.lists(SNR_DB, min_size=2, max_size=2)))
    keys = {
        "schema": 1, "scheme": draw(st.sampled_from(SCHEMES)), "mode": "analytic",
        "m": draw(M), "n_users": draw(COUNT), "n_vote": draw(COUNT), "q": draw(COUNT),
        "alpha": draw(ALPHA), "snr_start_db": start, "snr_stop_db": stop,
        "snr_step_db": draw(st.floats(10.0, 110.0)),
    }
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


@PROPERTY
@given(text=analytic_scenario_texts())
def test_analytic_cli_exits_0_2_or_3_and_writes_a_csv_only_on_0(text):
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp) / "s.txt", Path(tmp) / "o.csv"
        scenario.write_text(text)
        code = main(["sweep", "--scenario", str(scenario), "--out", str(out)])
        assert code in (0, 2, 3)
        assert out.exists() == (code == 0)
