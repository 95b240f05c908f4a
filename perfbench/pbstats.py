"""The benchmark's own arithmetic: percentiles, open-loop lag, span self
times and the share of wall time no layer accounts for.

Kept apart from run.py so test_perfbench.py can check it without
building or running anything.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def valid_metric_name(name):
    """Metric and workload names: a letter or digit, then at most 63
    more letters, digits, '_', '.' or '-'."""
    return bool(NAME_RE.match(name))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    k = max(1, math.ceil(p / 100.0 * len(s)))
    return s[k - 1]


def tail_percentile(n):
    """The highest of p99, p90 and p50 that has at least ten samples
    beyond it among n samples; the median when none has (n < 20)."""
    if n >= 1000:
        return 99
    if n >= 100:
        return 90
    return 50


def last_event_by_bin(bin_of_event, n_bins):
    """last[b] is the index of the last event whose bin is <= b, or -1.
    bin_of_event must be non-decreasing."""
    last = [-1] * n_bins
    j = -1
    for b in range(n_bins):
        while j + 1 < len(bin_of_event) and bin_of_event[j + 1] <= b:
            j += 1
        last[b] = j
    return last


def estimate_lags_ms(estimates, last_by_bin, t0, rate):
    """Open-loop lag of each estimate record, in ms.

    estimates: (upto, read_time) pairs. An estimate covering bins
    [.., upto) needs every event of bin upto-1; event j is due at
    t0 + j / rate on the generator's schedule, whenever it was actually
    written. The lag is read_time minus that due time, so a stall
    anywhere upstream counts against every estimate behind it."""
    lags = []
    for upto, read_time in estimates:
        b = min(upto, len(last_by_bin)) - 1
        j = last_by_bin[b] if b >= 0 else -1
        due = t0 + max(j, 0) / rate
        lags.append((read_time - due) * 1000.0)
    return lags


def lateness_ms(batches, t0, rate):
    """How late the paced generator queued each line for the pipe, in ms.
    batches: (queue_time, first_line, last_line) for the lines queued at
    that time; line j was due at t0 + j / rate."""
    out = []
    for t, lo, hi in batches:
        for j in range(lo, hi + 1):
            out.append(max(0.0, (t - (t0 + j / rate)) * 1000.0))
    return out


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per-name self time in the spans' time unit. A span is
    (id, parent, name, start, end); its self time is its duration minus
    the part of that interval its child spans cover."""
    children = {}
    for sid, parent, _name, a, b in spans:
        children.setdefault(parent, []).append((a, b))
    out = {}
    for sid, _parent, name, a, b in spans:
        own = (b - a) - _covered(children.get(sid, []), a, b)
        out[name] = out.get(name, 0) + own
    return out


def accounted(spans):
    """Time inside any span: the sum of all self times."""
    return sum(self_times(spans).values())


def unaccounted_share(accounted_s, capacity_s):
    """1 - (time the layers account for) / (the untraced run's capacity:
    wall time x processes or domains it may use)."""
    if capacity_s <= 0:
        raise ValueError("capacity must be positive")
    return 1.0 - accounted_s / capacity_s


def spread(values):
    """Interquartile distance as a share of the median, as
    statistics.quantiles(values, n=4) gives the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
