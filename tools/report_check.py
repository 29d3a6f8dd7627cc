#!/usr/bin/env python3
"""Compare bench reports on their non-timing fields.

    python3 tools/report_check.py [--strip SET] [--golden] REF RUN [RUN ...]

Every RUN must equal REF once the keys of SET are dropped at every
depth of the JSON documents. With --golden, REF is a committed golden
report and each RUN must first match its schema_version. Exits 1 on
the first mismatch.

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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--strip', choices=sorted(KEY_SETS),
                    default='timing')
    ap.add_argument('--golden', action='store_true')
    ap.add_argument('ref')
    ap.add_argument('runs', nargs='+')
    args = ap.parse_args(argv)
    keys, speedup = KEY_SETS[args.strip]

    with open(args.ref) as f:
        ref = json.load(f)
    want = strip(ref, keys, speedup)
    for path in args.runs:
        with open(path) as f:
            run = json.load(f)
        if args.golden and \
                run.get('schema_version') != ref.get('schema_version'):
            sys.exit(f'{path}: schema_version drifted from {args.ref} '
                     '— bump intentionally and regenerate')
        if strip(run, keys, speedup) != want:
            sys.exit(f'{path}: non-timing fields differ from {args.ref}')
        print(f'{path} matches {args.ref}')


if __name__ == '__main__':
    main()
