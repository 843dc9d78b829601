"""Which report fields a regenerated fixture changes.

The fixture regenerators (`python tests/test_acceptance.py`,
`python tests/test_bench_reports.py`) print, per record, the paths of the
fields that differ from the fixture they replace, e.g.
`ex1_p5: e, T[0].certificate.digits`.
"""


def changed_paths(old, new, path=""):
    """The paths of the leaves where two JSON values differ; a list entry or
    key that only one side has is one path, marked (added) or (removed)."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = list(old) + [k for k in new if k not in old]
        items = [(k, f"{path}.{k}" if path else str(k)) for k in keys]
    elif isinstance(old, list) and isinstance(new, list):
        items = [(i, f"{path}[{i}]") for i in range(max(len(old), len(new)))]
        old, new = dict(enumerate(old)), dict(enumerate(new))
    else:
        return [] if old == new else [path or "(value)"]
    out = []
    for k, sub in items:
        if k not in new:
            out.append(f"{sub} (removed)")
        elif k not in old:
            out.append(f"{sub} (added)")
        else:
            out += changed_paths(old[k], new[k], sub)
    return out


def print_changes(old, new):
    """One line per record of the new fixture: its changed paths against the
    old fixture, or "unchanged"."""
    for name, reports in new.items():
        if name not in old:
            print(f"{name}: (new record)")
            continue
        paths = changed_paths(old[name], reports)
        print(f"{name}: {', '.join(paths) if paths else 'unchanged'}")
