"""A small CTL labeller, independent of `lao.semantics`, that gives the
known answers for the random-graph ops of ``ctl-large``.

It follows the labelling algorithm of Clarke, Emerson and Sistla: E[a U b]
by backward reachability from the b-worlds through a-worlds, A[a U b] by
counting each world's successors not yet labelled, EG a as the greatest
set of a-worlds where every world keeps a successor inside the set, and
AG a as the complement of E[true U !a].
"""

from __future__ import annotations

from collections import deque

TRUE = ("true",)
P, Q = ("atom", "p"), ("atom", "q")
FORMULAS = {
    "EF p": ("EU", TRUE, P),
    "AF p": ("AU", TRUE, P),
    "EG !p": ("EG", ("not", P)),
    "E[q U p]": ("EU", Q, P),
    "A[q U p]": ("AU", Q, P),
    "AG EF p": ("AG", ("EU", TRUE, P)),
}


def satisfying(text, facts, succ):
    """Worlds of the structure (facts: world -> fact names, succ: world ->
    successor list) where the formula written `text` holds."""
    pred = {w: [] for w in succ}
    for w, targets in succ.items():
        for v in set(targets):
            pred[v].append(w)
    return _sat(FORMULAS[text], facts, succ, pred)


def _sat(f, facts, succ, pred):
    op = f[0]
    if op == "true":
        return set(succ)
    if op == "atom":
        return {w for w in succ if f[1] in facts[w]}
    if op == "not":
        return set(succ) - _sat(f[1], facts, succ, pred)
    if op == "EU":
        return _eu(_sat(f[1], facts, succ, pred), _sat(f[2], facts, succ, pred), pred)
    if op == "AU":
        return _au(_sat(f[1], facts, succ, pred), _sat(f[2], facts, succ, pred), succ, pred)
    if op == "EG":
        return _eg(_sat(f[1], facts, succ, pred), succ, pred)
    if op == "AG":
        bad = set(succ) - _sat(f[1], facts, succ, pred)
        return set(succ) - _eu(set(succ), bad, pred)
    raise ValueError(f"unknown operator {op!r}")


def _eu(a, b, pred):
    out = set(b)
    todo = deque(b)
    while todo:
        w = todo.popleft()
        for v in pred[w]:
            if v not in out and v in a:
                out.add(v)
                todo.append(v)
    return out


def _au(a, b, succ, pred):
    left = {w: len(set(targets)) for w, targets in succ.items()}
    out = set(b)
    todo = deque(b)
    while todo:
        w = todo.popleft()
        for v in pred[w]:
            left[v] -= 1
            if left[v] == 0 and v not in out and v in a:
                out.add(v)
                todo.append(v)
    return out


def _eg(a, succ, pred):
    inside = {w: sum(1 for v in set(succ[w]) if v in a) for w in a}
    out = set(a)
    todo = deque(w for w, k in inside.items() if k == 0)
    while todo:
        w = todo.popleft()
        if w not in out:
            continue
        out.discard(w)
        for v in pred[w]:
            if v in out:
                inside[v] -= 1
                if inside[v] == 0:
                    todo.append(v)
    return out
