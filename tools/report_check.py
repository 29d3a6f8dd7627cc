#!/usr/bin/env python3
"""Compare bench reports on their non-timing fields.

    python3 tools/report_check.py [--strip SET] [--golden] REF RUN [RUN ...]
    python3 tools/report_check.py --max|--min KEY=LIMIT [...] RUN [RUN ...]

Every RUN must equal REF once the keys of SET are dropped at every
depth of the JSON documents. With --golden, REF is a committed golden
report and each RUN must first match its schema_version. With --max
or --min there is no REF: the value at the dotted KEY path of each
RUN (for example perf.peak_rss_mib) must be at most (--max) or at
least (--min) LIMIT; a boolean counts as 0 or 1, so --min KEY=1
requires a flag to be true. Exits 1 on the first mismatch.

Key sets:
  timing   (default) wall-clock fields: seconds, wall_seconds, perf,
           jobs and every *per_second key
  backend  timing plus the fields that legitimately differ between
           builds (portable vs -mavx2, Debug vs Release): allocations,
           bytes_allocated, simd_backend and every speedup* key
  build    backend without jobs (both builds run at one job count)
"""

import argparse
import json
import sys

TIMING = {'seconds', 'wall_seconds', 'perf', 'jobs'}
BACKEND = TIMING | {'allocations', 'bytes_allocated', 'simd_backend'}
KEY_SETS = {
    # name: (dropped keys, drop speedup* keys)
    'timing': (TIMING, False),
    'backend': (BACKEND, True),
    'build': (BACKEND - {'jobs'}, True),
}


def strip(doc, keys, speedup):
    if isinstance(doc, dict):
        return {k: strip(v, keys, speedup) for k, v in doc.items()
                if k not in keys and not k.endswith('per_second')
                and not (speedup and k.startswith('speedup'))}
    if isinstance(doc, list):
        return [strip(x, keys, speedup) for x in doc]
    return doc


def limit(at_most):
    def parse(text):
        key, _, value = text.partition('=')
        try:
            if key:
                return key, float(value), at_most
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f'expected KEY=LIMIT, got {text!r}')
    return parse


def check_limits(path, limits):
    with open(path) as f:
        doc = json.load(f)
    for key, bound, at_most in limits:
        value = doc
        for part in key.split('.'):
            if not isinstance(value, dict) or part not in value:
                sys.exit(f'{path}: no {key}')
            value = value[part]
        if not isinstance(value, (int, float)):
            sys.exit(f'{path}: {key} is not a number')
        if value > bound if at_most else value < bound:
            side = 'above' if at_most else 'below'
            sys.exit(f'{path}: {key} is {value}, {side} {bound}')
        op = '<=' if at_most else '>='
        print(f'{path}: {key} = {value} {op} {bound}')


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--strip', choices=sorted(KEY_SETS),
                    default='timing')
    ap.add_argument('--golden', action='store_true')
    ap.add_argument('--max', dest='limits', type=limit(True),
                    action='append', default=[], metavar='KEY=LIMIT')
    ap.add_argument('--min', dest='limits', type=limit(False),
                    action='append', default=[], metavar='KEY=LIMIT')
    ap.add_argument('reports', nargs='+', metavar='REPORT')
    args = ap.parse_args(argv)
    if args.limits:
        for path in args.reports:
            check_limits(path, args.limits)
        return
    if len(args.reports) < 2:
        ap.error('expected a REF and at least one RUN')
    keys, speedup = KEY_SETS[args.strip]

    ref_path, runs = args.reports[0], args.reports[1:]
    with open(ref_path) as f:
        ref = json.load(f)
    want = strip(ref, keys, speedup)
    for path in runs:
        with open(path) as f:
            run = json.load(f)
        if args.golden and \
                run.get('schema_version') != ref.get('schema_version'):
            sys.exit(f'{path}: schema_version drifted from {ref_path} '
                     '— bump intentionally and regenerate')
        if strip(run, keys, speedup) != want:
            sys.exit(f'{path}: non-timing fields differ from {ref_path}')
        print(f'{path} matches {ref_path}')


if __name__ == '__main__':
    main()
