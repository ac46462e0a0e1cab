"""Summaries and the compare verdicts, on hand-built results."""

from bench import report

SPEC = {"end_to_end": [{"name": "round_wall_p50_s", "unit": "s", "better": "lower", "bound": 0.1}]}


def result(values, failed_share=0.0, acc=0.5):
    return {
        "schema": report.SCHEMA,
        "workloads": {
            "sim_hetero": {
                "end_to_end": {"round_wall_p50_s": {"unit": "s", **report.summarize(values)}},
                "final_mean_acc": report.summarize([acc] * len(values)),
                "failed_share": failed_share,
            }
        },
    }


def test_summarize_reports_median_quartiles_and_count():
    s = report.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["median"], s["n"]) == (3.0, 5) and s["q1"] < 3.0 < s["q3"]
    assert report.summarize([7.0])["q1"] == 7.0


def verdict(parent, change, better="lower", bound=0.1):
    return report.verdict(report.summarize(parent), report.summarize(change), better, bound)


def test_verdicts():
    tight = [1.00, 1.01, 0.99, 1.00, 1.01]
    assert verdict(tight, [1.20, 1.21, 1.19, 1.2, 1.2]) == "worse"
    assert verdict(tight, [0.80, 0.81, 0.79, 0.8, 0.8]) == "better"
    assert verdict(tight, [1.02, 1.00, 1.01, 0.99, 1.0]) == "same"
    # spread wider than the bound and the runs overlap: cannot tell
    assert verdict([0.8, 1.0, 1.2, 0.9, 1.1], [0.85, 1.0, 1.15, 0.9, 1.1]) == "unresolved"
    # direction flips for higher-is-better metrics
    assert verdict(tight, [1.20, 1.21, 1.19, 1.2, 1.2], better="higher") == "better"
    assert verdict(tight, [0.80, 0.81, 0.79, 0.8, 0.8], better="higher") == "worse"


def test_compare_exit_code():
    lines = []
    same = [1.0, 1.01, 0.99]
    assert report.compare(result(same), result(same), SPEC, out=lines.append) == 0
    assert any("same" in line for line in lines)
    assert report.compare(result(same), result([1.3, 1.31, 1.29]), SPEC, out=lines.append) == 1
    # accuracy is judged in absolute points: 0.02 down is inside the bound, 0.05 is not
    assert report.compare(result(same), result(same, acc=0.48), SPEC, out=lines.append) == 0
    assert report.compare(result(same), result(same, acc=0.45), SPEC, out=lines.append) == 1
    # any rise in failed_share is a regression, whatever the timings say
    assert report.compare(result(same), result(same, failed_share=0.01), SPEC, out=lines.append) == 1
