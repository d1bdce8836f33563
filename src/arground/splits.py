"""Train/test split construction.

In-domain splits are stratified: within every domain the dialogues are
sorted by id, shuffled with a per-domain seeded RNG, and ceil(fraction*n)
go to test (capped so each domain keeps one dialogue in train; a domain
with a single dialogue goes to train). Out-of-domain splits hold out whole
domains plus everything connected to them through a user-supplied synonym
map, and assert the resulting domain sets are disjoint. A split over no
dialogues, or naming an unknown holdout domain, or that would leave either
side empty (as no holdout domain does) raises ``DegenerateSplit``. Both splits are pure
functions of (content, parameters, seed), insensitive to input order.
"""

from __future__ import annotations

import logging
import math
import random
from typing import Iterable

from .errors import DegenerateSplit
from .schema import Dialogue, canonicalize_value

logger = logging.getLogger(__name__)


def split_in_domain(
    dialogues: list[Dialogue], test_fraction: float, seed: int
) -> tuple[list[Dialogue], list[Dialogue]]:
    """Stratified split; every domain with >= 2 dialogues appears in both sides.

    Raises ``DegenerateSplit`` when no domain has two dialogues, since the
    test side would then be empty.
    """
    if not dialogues:
        raise DegenerateSplit("cannot split an empty dataset")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    by_domain: dict[str, list[str]] = {}
    for d in dialogues:
        by_domain.setdefault(d.domain, []).append(d.id)

    test_ids: set[str] = set()
    for domain in sorted(by_domain):
        ids = sorted(by_domain[domain])
        if len(ids) == 1:
            logger.warning("domain '%s' has a single dialogue; placed in train", domain)
            continue
        rng = random.Random(f"{seed}:{domain}")
        rng.shuffle(ids)
        n_test = min(math.ceil(test_fraction * len(ids)), len(ids) - 1)
        test_ids.update(ids[:n_test])
    if not test_ids:
        raise DegenerateSplit("no domain has two dialogues, so the test side would be empty")

    train = [d for d in dialogues if d.id not in test_ids]
    test = [d for d in dialogues if d.id in test_ids]
    return train, test


def _synonym_closure(
    seeds: set[str], overlap_map: dict[str, str] | None
) -> set[str]:
    """Domains equivalent to any seed under the (undirected) synonym map."""
    closure = set(seeds)
    if not overlap_map:
        return closure
    edges: dict[str, set[str]] = {}
    for a, b in overlap_map.items():
        a, b = canonicalize_value(a), canonicalize_value(b)
        edges.setdefault(a, set()).add(b)
        edges.setdefault(b, set()).add(a)
    frontier = list(closure)
    while frontier:
        node = frontier.pop()
        for neighbor in edges.get(node, ()):
            if neighbor not in closure:
                closure.add(neighbor)
                frontier.append(neighbor)
    return closure


def split_out_of_domain(
    dialogues: list[Dialogue],
    holdout_domains: Iterable[str],
    overlap_map: dict[str, str] | None = None,
) -> tuple[list[Dialogue], list[Dialogue]]:
    """Hold out whole domains (and their synonyms) as the test set."""
    if not dialogues:
        raise DegenerateSplit("cannot split an empty dataset")
    holdout = {canonicalize_value(h) for h in holdout_domains}
    present = {d.domain for d in dialogues}
    known = set(present)
    if overlap_map:
        for a, b in overlap_map.items():
            known.add(canonicalize_value(a))
            known.add(canonicalize_value(b))
    for domain in sorted(holdout):
        if domain not in known:
            raise DegenerateSplit(f"holdout domain '{domain}' not in data or synonym map")

    closure = _synonym_closure(holdout, overlap_map)
    test = [d for d in dialogues if d.domain in closure]
    train = [d for d in dialogues if d.domain not in closure]
    if not test:
        raise DegenerateSplit("no dialogue is in a held-out domain or its synonyms; the test side is empty")
    if not train:
        raise DegenerateSplit("synonym closure leaves the train side empty")
    assert not ({d.domain for d in train} & closure)
    return train, test


def build_split_manifest(
    kind: str,
    train: list[Dialogue],
    test: list[Dialogue],
    *,
    seed: int | None = None,
    test_fraction: float | None = None,
    holdout_domains: Iterable[str] | None = None,
    synonym_map: dict[str, str] | None = None,
) -> dict:
    """Auditable record of a split: parameters plus the exact id partition."""
    manifest: dict = {"kind": kind}
    if seed is not None:
        manifest["seed"] = seed
    if test_fraction is not None:
        manifest["test_fraction"] = test_fraction
    if holdout_domains is not None:
        manifest["holdout_domains"] = sorted(canonicalize_value(h) for h in holdout_domains)
    if synonym_map is not None:
        manifest["synonym_map"] = {
            canonicalize_value(a): canonicalize_value(b) for a, b in synonym_map.items()
        }
    manifest["train_ids"] = [d.id for d in train]
    manifest["test_ids"] = [d.id for d in test]
    return manifest

