#!/usr/bin/env python3
"""Diff two renamelib bench reports with regression thresholds.

Usage:
  bench_compare.py BASELINE.json CURRENT.json [options]
  bench_compare.py --validate FILE [FILE...]
  bench_compare.py --self-check

Modes:
  * compare (default): match runs by *configuration* — (bench, spec,
    backend, threads, unit) — and flag regressions: throughput
    dropping more than --max-throughput-regress, tail latency (p99)
    growing more than --max-p99-regress, or a per-op event rate (the
    optional "events" section: counts of contention/failure sites like
    cas_fail, divided by the run's ops) growing more than
    --max-event-rate-regress. Run *names* are labels, not
    identity: a bench may relabel its tables without orphaning history.
    Specs match verbatim: the C++ writer emits every spec in api::Spec's
    canonical form, so a hand-edited spec with reordered keys shows up as
    MISSING/NEW rather than pairing. Runs without a spec fall back to their
    name.
    Exit codes: 0 no regression, 1 regression found, 2 invalid input or no
    comparable runs at all (two reports that share nothing are a usage
    error, not a clean pass).
  * --validate: schema-check report files (the structural checks below)
    without comparing. Exits non-zero on the first invalid file.
  * --self-check: run the built-in synthetic-report tests of the full
    parse/match/threshold path. Used as a ctest entry (label smoke).

Schema checks (renamelib.bench_report.v1):
  * top-level: schema/bench/git_describe strings, runs list,
  * per run: name/spec/backend/unit strings, threads/ops integers,
    ops_per_sec number, latency object (keys outside the schema are
    ignored),
  * per latency: count/min/max/p50/p90/p99/p999 integers, sum/sum_sq/mean
    numbers, buckets a list of [lower, upper, count] with ascending lower
    edges and counts summing to `count`; when count > 0, `min` lies in
    [lower, upper) of the first non-empty bucket, `max` in that of the last
    (upper == 0 means past the uint64 maximum), and the percentiles inside
    [min, max],
  * optional per-run events: an object of site-name -> non-negative integer
    count (obs::site_name keys; absent when the run recorded none).
"""

import argparse
import json
import sys

SCHEMA = "renamelib.bench_report.v1"


class ReportError(Exception):
    """A report failed schema validation."""


def _require(cond, where, what):
    if not cond:
        raise ReportError(f"{where}: {what}")


def _is_uint(v):
    # bool is an int subclass in Python, but a JSON true/false is not an
    # integer: it must not satisfy a count or an edge.
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_report(doc, where="report"):
    """Structural validation of one parsed report; returns the doc."""
    _require(isinstance(doc, dict), where, "top level must be an object")
    _require(doc.get("schema") == SCHEMA, where,
             f"schema must be '{SCHEMA}', got {doc.get('schema')!r}")
    for key in ("bench", "git_describe"):
        _require(isinstance(doc.get(key), str), where, f"'{key}' must be a string")
    _require(isinstance(doc.get("runs"), list), where, "'runs' must be a list")
    for i, run in enumerate(doc["runs"]):
        rwhere = f"{where}.runs[{i}]"
        _require(isinstance(run, dict), rwhere, "must be an object")
        for key in ("name", "spec", "backend", "unit"):
            _require(isinstance(run.get(key), str), rwhere,
                     f"'{key}' must be a string")
        for key in ("threads", "ops"):
            _require(_is_uint(run.get(key)), rwhere,
                     f"'{key}' must be a non-negative integer")
        _require(_is_number(run.get("ops_per_sec")), rwhere,
                 "'ops_per_sec' must be a number")
        lat = run.get("latency")
        _require(isinstance(lat, dict), rwhere, "'latency' must be an object")
        for key in ("count", "min", "max", "p50", "p90", "p99", "p999"):
            _require(_is_uint(lat.get(key)), rwhere,
                     f"latency '{key}' must be a non-negative integer")
        for key in ("sum", "sum_sq", "mean"):
            _require(_is_number(lat.get(key)), rwhere,
                     f"latency '{key}' must be a number")
        _require(isinstance(lat.get("buckets"), list), rwhere,
                 "latency 'buckets' must be a list")
        total = 0
        prev_lower = -1
        for j, bucket in enumerate(lat["buckets"]):
            _require(isinstance(bucket, list) and len(bucket) == 3 and
                     all(_is_uint(v) for v in bucket),
                     rwhere, f"bucket[{j}] must be [lower, upper, count] ints")
            _require(bucket[0] > prev_lower, rwhere,
                     f"bucket[{j}] lower edges must be ascending")
            prev_lower = bucket[0]
            total += bucket[2]
        _require(total == lat["count"], rwhere,
                 f"bucket counts sum to {total}, latency count is {lat['count']}")
        if lat["count"] > 0:
            # min/max must sit in the extreme non-empty buckets: percentiles
            # clamp to [min, max], so a tampered min or max would shift them.
            filled = [b for b in lat["buckets"] if b[2] > 0]
            for key, (lower, upper, _) in (("min", filled[0]),
                                           ("max", filled[-1])):
                _require(lower <= lat[key] and (upper == 0 or lat[key] < upper),
                         rwhere, f"latency '{key}'={lat[key]} outside its "
                         f"bucket [{lower}, {upper or '2^64'})")
            for key in ("p50", "p90", "p99", "p999"):
                _require(lat["min"] <= lat[key] <= lat["max"], rwhere,
                         f"latency '{key}'={lat[key]} outside "
                         f"[min={lat['min']}, max={lat['max']}]")
        # Optional per-site event counts (absent when the run recorded none).
        if "events" in run:
            _require(isinstance(run["events"], dict), rwhere,
                     "'events' must be an object")
            for site, count in run["events"].items():
                _require(isinstance(site, str) and site, rwhere,
                         "event keys must be non-empty site names")
                _require(_is_uint(count), rwhere,
                         f"event '{site}' must be a non-negative integer")
    return doc


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ReportError(f"{path}: {e}") from e
    return validate_report(doc, where=path)


def run_key(doc, run, occurrence):
    # Identity is the measured configuration, not the table label; label-only
    # runs (spec == "") key on their name instead.
    config = run["spec"] or "name:" + run["name"]
    return (doc["bench"], config, run["backend"], run["threads"], run["unit"],
            occurrence)


def index_runs(doc):
    """Keyed runs. When one configuration appears several times in a report
    (the same spec measured in two tables, or under two facets), the
    colliding runs are told apart by their *name* — stable under table
    reordering and entry removal, unlike positional pairing — and only
    same-config same-name repeats fall back to an occurrence index."""
    bases = {}
    for run in doc["runs"]:
        bases.setdefault(run_key(doc, run, 0)[:-1], []).append(run)
    out = {}
    for base, runs in bases.items():
        if len(runs) == 1:
            out[base + ("", 0)] = runs[0]
            continue
        seen = {}
        for run in runs:
            occurrence = seen.get(run["name"], 0)
            seen[run["name"]] = occurrence + 1
            out[base + (run["name"], occurrence)] = run
    return out


def fmt_key(key):
    bench, config, backend, threads, unit, name, occ = key
    name_part = f" '{name}'" if name else ""
    occ_part = f" #{occ}" if occ else ""
    return f"{bench}/{config}{name_part} ({backend}, k={threads}, {unit}){occ_part}"


def _event_rates(run):
    """Per-op rates of the run's recorded events ({} when none or ops==0)."""
    ops = run["ops"]
    if not ops:
        return {}
    return {site: count / ops
            for site, count in run.get("events", {}).items()}


def compare(baseline, current, max_tp_regress, max_p99_regress,
            max_event_regress=1.0, out=sys.stdout):
    """Returns (regressions, compared, unmatched) and prints a row per pair."""
    base_runs = index_runs(baseline)
    cur_runs = index_runs(current)
    regressions = []
    compared = 0
    for key in sorted(base_runs):
        if key not in cur_runs:
            print(f"  MISSING  {fmt_key(key)} (in baseline only)", file=out)
            continue
        b, c = base_runs[key], cur_runs[key]
        compared += 1
        verdicts = []
        # Throughput: lower is worse. Only meaningful when both legs timed.
        if b["ops_per_sec"] > 0 and c["ops_per_sec"] > 0:
            delta = c["ops_per_sec"] / b["ops_per_sec"] - 1
            verdicts.append(f"ops/sec {delta:+.1%}")
            if delta < -max_tp_regress:
                regressions.append(
                    f"{fmt_key(key)}: throughput {b['ops_per_sec']:.0f} -> "
                    f"{c['ops_per_sec']:.0f} ({delta:+.1%}, limit "
                    f"-{max_tp_regress:.0%})")
        # Tail latency: higher is worse.
        if b["latency"]["count"] > 0 and c["latency"]["count"] > 0 \
                and b["latency"]["p99"] > 0:
            delta = c["latency"]["p99"] / b["latency"]["p99"] - 1
            verdicts.append(f"p99 {delta:+.1%}")
            if delta > max_p99_regress:
                regressions.append(
                    f"{fmt_key(key)}: p99 {b['latency']['p99']} -> "
                    f"{c['latency']['p99']} {b['unit']} ({delta:+.1%}, limit "
                    f"+{max_p99_regress:.0%})")
        # Event rates: the sites count contention and failure paths (lost
        # CASes, reclaims, drops), so a rising per-op rate is worse. Only
        # sites both legs recorded compare as ratios; sites new in one leg
        # are surfaced but not thresholded (no baseline rate to ratio on).
        b_rates, c_rates = _event_rates(b), _event_rates(c)
        if b_rates or c_rates:
            deltas = []
            for site in sorted(set(b_rates) | set(c_rates)):
                br, cr = b_rates.get(site), c_rates.get(site)
                if br and cr:
                    delta = cr / br - 1
                    deltas.append(f"{site} {delta:+.1%}")
                    if delta > max_event_regress:
                        regressions.append(
                            f"{fmt_key(key)}: event '{site}' rate "
                            f"{br:.4g}/op -> {cr:.4g}/op ({delta:+.1%}, "
                            f"limit +{max_event_regress:.0%})")
                else:
                    deltas.append(f"{site} "
                                  f"{'appeared' if cr else 'vanished'}")
            verdicts.append("events: " + ", ".join(deltas))
        print(f"  ok  {fmt_key(key)}: {', '.join(verdicts) or 'no timed axis'}",
              file=out)
    unmatched = [k for k in cur_runs if k not in base_runs]
    for key in sorted(unmatched):
        print(f"  NEW  {fmt_key(key)} (in current only)", file=out)
    return regressions, compared, unmatched


# ------------------------------------------------------------- self-check

def _synthetic(bench="bench_x", name="t", spec="s", ops_per_sec=1000.0,
               p99=100):
    """A minimal valid report with one run whose p99 lands exactly on p99."""
    return validate_report({
        "schema": SCHEMA, "bench": bench, "git_describe": "selfcheck",
        "runs": [{
            "name": name, "spec": spec, "backend": "hardware", "threads": 2,
            "ops": 100, "ops_per_sec": ops_per_sec, "unit": "ns",
            "latency": {
                "count": 100, "sum": 100.0 * p99, "sum_sq": 100.0 * p99 * p99,
                "min": p99, "max": p99, "mean": float(p99), "p50": p99,
                "p90": p99, "p99": p99, "p999": p99,
                "buckets": [[p99, p99 + 1, 100]],
            },
        }],
    }, where="synthetic")


def self_check():
    import io

    def diff(base, cur):
        return compare(base, cur, 0.25, 0.25, 1.0, out=io.StringIO())

    # Identical reports: no regression.
    regs, compared, unmatched = diff(_synthetic(), _synthetic())
    assert not regs and compared == 1 and not unmatched, regs

    # Throughput drop beyond the threshold: flagged.
    regs, _, _ = diff(_synthetic(ops_per_sec=1000), _synthetic(ops_per_sec=500))
    assert len(regs) == 1 and "throughput" in regs[0], regs

    # Throughput gain: not flagged.
    regs, _, _ = diff(_synthetic(ops_per_sec=1000), _synthetic(ops_per_sec=2000))
    assert not regs, regs

    # p99 growth beyond the threshold: flagged.
    regs, _, _ = diff(_synthetic(p99=100), _synthetic(p99=200))
    assert len(regs) == 1 and "p99" in regs[0], regs

    # p99 improvement: not flagged.
    regs, _, _ = diff(_synthetic(p99=100), _synthetic(p99=50))
    assert not regs, regs

    # Matching is by configuration: a renamed run with the same spec still
    # pairs.
    regs, compared, unmatched = diff(
        _synthetic(name="old_label", spec="lease:procs=4,quota=8"),
        _synthetic(name="new_label", spec="lease:procs=4,quota=8"))
    assert not regs and compared == 1 and not unmatched

    # Specs match verbatim: reordered keys (which the C++ writer never
    # emits) are a different string, so the runs show as MISSING/NEW instead
    # of pairing silently.
    regs, compared, unmatched = diff(
        _synthetic(spec="lease:procs=4,quota=8"),
        _synthetic(spec="lease:quota=8,procs=4"))
    assert not regs and compared == 0 and len(unmatched) == 1

    # Runs without a spec fall back to their name.
    regs, compared, unmatched = diff(_synthetic(spec=""),
                                     _synthetic(spec="", name="other"))
    assert compared == 0 and len(unmatched) == 1

    # Colliding configurations (one spec measured twice, e.g. under two
    # facets) pair by run name, not position: reordering the runs must not
    # cross the pairs and fake a regression.
    base = _synthetic(name="counter", p99=100)
    base["runs"].append(_synthetic(name="readable", p99=200)["runs"][0])
    cur = _synthetic(name="readable", p99=200)
    cur["runs"].append(_synthetic(name="counter", p99=100)["runs"][0])
    regs, compared, unmatched = diff(base, cur)
    assert not regs and compared == 2 and not unmatched, regs

    # Unmatched runs warn but do not fail (compare() itself; main() turns an
    # *all*-unmatched comparison into exit 2).
    base, cur = _synthetic(), _synthetic(spec="other_spec")
    regs, compared, unmatched = diff(base, cur)
    assert not regs and compared == 0 and len(unmatched) == 1

    # A top bucket's upper edge 0 means past the uint64 maximum, so the
    # largest recordable max still lies inside it.
    doc = _synthetic()
    doc["runs"][0]["latency"].update(
        max=2**64 - 1, p999=2**64 - 1,
        buckets=[[100, 101, 99], [2**64 - 2**58, 0, 1]])
    validate_report(doc, where="top bucket")

    # Events: optional, validated when present, diffed as per-op rates.
    doc = _synthetic()
    doc["runs"][0]["events"] = {"cas_fail": 50, "lease_drop": 10}
    validate_report(doc, where="events")
    # Same rates: no regression, rates surfaced in the row.
    out = io.StringIO()
    regs, compared, _ = compare(doc, doc, 0.25, 0.25, 1.0, out=out)
    assert not regs and compared == 1
    assert "cas_fail +0.0%" in out.getvalue(), out.getvalue()
    # Injected rate regression (50 -> 150 per 100 ops, beyond the 1.0
    # doubling limit): flagged, and naming the site.
    worse = _synthetic()
    worse["runs"][0]["events"] = {"cas_fail": 150, "lease_drop": 10}
    regs, _, _ = compare(doc, worse, 0.25, 0.25, 1.0, out=io.StringIO())
    assert len(regs) == 1 and "cas_fail" in regs[0], regs
    # Within the limit: not flagged. A site appearing only in one leg is
    # surfaced but never thresholded.
    better = _synthetic()
    better["runs"][0]["events"] = {"cas_fail": 60, "lease_seize": 3}
    out = io.StringIO()
    regs, _, _ = compare(doc, better, 0.25, 0.25, 1.0, out=out)
    assert not regs, regs
    assert "lease_seize appeared" in out.getvalue(), out.getvalue()
    assert "lease_drop vanished" in out.getvalue(), out.getvalue()
    # An event-less baseline against an evented current: no regression
    # (nothing to ratio against), still one comparable run.
    regs, compared, _ = diff(_synthetic(), doc)
    assert not regs and compared == 1, regs

    # Schema violations are caught.
    for mutate in (
        lambda d: d.update(schema="nope"),
        lambda d: d["runs"][0].pop("ops_per_sec"),
        lambda d: d["runs"][0]["latency"]["buckets"][0].__setitem__(2, 7),
        lambda d: d["runs"][0]["latency"].__setitem__("p99", 10**9),
        # min/max outside the first/last non-empty bucket's [lower, upper).
        lambda d: d["runs"][0]["latency"].update(min=99, p50=99),
        lambda d: d["runs"][0]["latency"].update(max=101, p999=101),
        # JSON booleans are not integers, though Python's bool is an int.
        lambda d: d["runs"][0].__setitem__("threads", True),
        lambda d: d["runs"][0]["latency"].__setitem__("count", True),
        # Events, when present, must be a site->count object.
        lambda d: d["runs"][0].__setitem__("events", [1, 2]),
        lambda d: d["runs"][0].__setitem__("events", {"cas_fail": -1}),
        lambda d: d["runs"][0].__setitem__("events", {"cas_fail": True}),
        lambda d: d["runs"][0].__setitem__("events", {"": 3}),
    ):
        doc = _synthetic()
        mutate(doc)
        try:
            validate_report(doc, where="mutated")
        except ReportError:
            pass
        else:
            raise AssertionError(f"mutation not caught: {mutate}")

    print("bench_compare self-check OK")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="BASELINE CURRENT (compare) "
                        "or report files (--validate)")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check the given files, do not compare")
    parser.add_argument("--self-check", action="store_true",
                        help="run the built-in synthetic-report tests")
    parser.add_argument("--max-throughput-regress", type=float, default=0.30,
                        metavar="FRAC",
                        help="max tolerated ops/sec drop (default 0.30)")
    parser.add_argument("--max-p99-regress", type=float, default=0.50,
                        metavar="FRAC",
                        help="max tolerated p99 growth (default 0.50)")
    parser.add_argument("--max-event-rate-regress", type=float, default=1.0,
                        metavar="FRAC",
                        help="max tolerated per-op event-rate growth for "
                        "sites present in both reports (default 1.0, i.e. "
                        "a doubling)")
    args = parser.parse_args(argv)

    if args.self_check:
        return self_check()

    try:
        if args.validate:
            if not args.files:
                parser.error("--validate needs at least one file")
            for path in args.files:
                load_report(path)
                print(f"valid: {path}")
            return 0

        if len(args.files) != 2:
            parser.error("compare mode needs exactly BASELINE and CURRENT")
        baseline = load_report(args.files[0])
        current = load_report(args.files[1])
    except ReportError as e:
        print(f"INVALID REPORT: {e}", file=sys.stderr)
        return 2

    print(f"comparing {args.files[0]} ({baseline['git_describe']}) -> "
          f"{args.files[1]} ({current['git_describe']})")
    regressions, compared, _ = compare(
        baseline, current, args.max_throughput_regress, args.max_p99_regress,
        args.max_event_rate_regress)
    print(f"{compared} run(s) compared, {len(regressions)} regression(s)")
    if compared == 0:
        # Nothing paired up: comparing disjoint reports would otherwise look
        # like a clean pass. Say exactly why nothing matched.
        print(f"NO COMPARABLE RUNS: {args.files[0]} "
              f"(bench={baseline['bench']!r}, {len(baseline['runs'])} runs) "
              f"and {args.files[1]} (bench={current['bench']!r}, "
              f"{len(current['runs'])} runs) share no "
              "(bench, spec, backend, threads, unit) key — are these "
              "reports from the same bench?", file=sys.stderr)
        return 2
    for reg in regressions:
        print(f"REGRESSION: {reg}", file=sys.stderr)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
