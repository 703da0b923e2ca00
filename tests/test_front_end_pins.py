"""The front end and the explain output, pinned byte for byte.

The tokenizer is one pass of ``_TOKEN_RE``, the parser looks ahead by direct
index, and ``QueryResult.plan_explain`` is rendered from the executed plan
when it is first read.  None of that may move a token, a rejection or a byte
of ``explain()``: the digests below were taken before those changes, from

* ``(kind, value, position)`` of every token of the ten TPC-H texts;
* position, line and column of every ``SqlParseError`` over a fixed-seed
  corpus of word mutations of those texts (words deleted, duplicated,
  replaced, swapped, or glued to a character no token starts with);
* ``QueryResult.explain()`` of each of the ten queries at SF 0.002 (seed 7,
  the ``fixed_overhead`` layout, each query's second run).
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Optional, Tuple

import pytest

import repro
from repro.errors import SqlParseError
from repro.frontend.sql import _tokenize, parse_sql
from repro.workload import queries as q
from repro.workload import tpch

QUERIES = ("q1", "q3", "q5", "q6", "q7", "q9", "q10", "q12", "q14", "q18")
RELATIONS = ("lineitem", "orders", "customer", "supplier", "nation", "region", "part")
TEXTS = [getattr(q, f"{name}_sql")() for name in QUERIES]

TOKENS_SHA256 = "002f010db2ce9dba8bd3f38b68bcf5526c763fa352ac04ffe18da2addb78026e"
REJECTIONS_SHA256 = "031644f880cae8ba67cb786b408cadf50a81282294a73f99ae3f8f29327e3127"
#: How many of the corpus' statements are rejected (the rest parse).
REJECTED = 1942
EXPLAIN_SHA256: Dict[str, str] = {
    "q1": "a4c0c9fa00655318c1cfb55334776275bd52e436b5fbbd8eee881e50dd6a1cf5",
    "q3": "c6d299da63f1f0e645469b9894ec14ce2264b70f0d81bdf5984c798ff8bed0f2",
    "q5": "04938567e6b1788e943ecb3a0a33e3702e1c965e088c64c6812cfccb4e13e01d",
    "q6": "88c401b1192fe5e15d1e49f39bb95c3be2b4e62ab7c2028fb7dc5c4a40e456b7",
    "q7": "d86ee62783e81ddf87ef858fe73a9922afbe3a5aab032be967ece2090b528899",
    "q9": "34ee985fdd153aee85650a1a92575dbe2ac3ecc32918ea6c6a67cd6c321b6667",
    "q10": "5a03b5297cb6964c10e7b51bbc435ef873c4c41915fc5e80e089d47b09e84e50",
    "q12": "1c72c0667040536f83229181272a2072dfc584a42f8773b628aa9c90d702d780",
    "q14": "b5d4f6dc1961e8f4fa64811032ef0d08f45601d519f191ebc8f5b3ab01c7b660",
    "q18": "f06eeb8fc54e921b37c56290ce512ca2c8e7747effab370c25fd2576f8598780",
}

#: Glued onto a word by the ``junk`` mutation.
_JUNK = ["#", "'", ";", "é", "(", ")", "<>", "1.", ".5", "date'1994-01-01'", " date '1995-02-30'"]


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def token_records() -> List[List[Tuple[str, str, int]]]:
    return [[(token.kind, token.value, token.position) for token in _tokenize(text)]
            for text in TEXTS]


def mutation_corpus(count: int = 2000, seed: int = 50) -> List[str]:
    """``count`` statements, each one of the ten texts with one to three word
    edits, drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    words = sorted({word for text in TEXTS for word in text.split()})
    corpus = []
    for _ in range(count):
        statement = rng.choice(TEXTS).split()
        for _ in range(rng.randint(1, 3)):
            index = rng.randrange(len(statement))
            edit = rng.choice(["delete", "duplicate", "replace", "swap", "junk"])
            if edit == "delete" and len(statement) > 1:
                del statement[index]
            elif edit == "duplicate":
                statement.insert(index, statement[index])
            elif edit == "replace":
                statement[index] = rng.choice(words)
            elif edit == "swap":
                other = rng.randrange(len(statement))
                statement[index], statement[other] = statement[other], statement[index]
            elif edit == "junk":
                statement[index] += rng.choice(_JUNK)
        corpus.append(" ".join(statement))
    return corpus


def rejection_records() -> List[Optional[Tuple[int, int, int]]]:
    catalog = q.tpch_catalog(**{name: [f"s3://tpch/{name}/*.lpq"] for name in RELATIONS})
    records = []
    for statement in mutation_corpus():
        try:
            parse_sql(statement, catalog)
        except SqlParseError as error:
            records.append((error.position, error.line, error.column))
        else:
            records.append(None)
    return records


def explain_digests() -> Dict[str, str]:
    env = repro.CloudEnvironment.create()
    session = repro.connect(env)
    try:
        for relation in RELATIONS:
            files = {"lineitem": {"num_files": 4}, "orders": {"num_files": 2}}.get(relation, {})
            write = getattr(tpch, f"generate_{relation}_dataset")
            session.register(write(env.s3, scale_factor=0.002, seed=7, **files))
        for text in TEXTS:
            session.sql(text)
        return {
            name: hashlib.sha256(session.sql(text).explain().encode()).hexdigest()
            for name, text in zip(QUERIES, TEXTS)
        }
    finally:
        session.close()


def test_every_token_of_the_ten_queries_is_pinned():
    records = token_records()
    assert sum(map(len, records)) == 589
    assert _digest(records) == TOKENS_SHA256


def test_every_rejection_of_the_mutation_corpus_is_pinned():
    records = rejection_records()
    assert sum(record is not None for record in records) == REJECTED
    assert _digest(records) == REJECTIONS_SHA256


@pytest.mark.parametrize("name", QUERIES)
def test_explain_is_pinned(explained, name):
    assert explained[name] == EXPLAIN_SHA256[name]


@pytest.fixture(scope="module")
def explained() -> Dict[str, str]:
    return explain_digests()


def test_plan_explain_is_rendered_from_the_executed_plan_on_first_read(monkeypatch):
    from repro.plan.physical import DagPhysicalPlan

    env = repro.CloudEnvironment.create()
    session = repro.connect(env)
    session.register(tpch.generate_lineitem_dataset(env.s3, scale_factor=0.002, num_files=2))
    renders = []
    explain = DagPhysicalPlan.explain

    def counted(self):
        renders.append(self)
        return explain(self)

    monkeypatch.setattr(DagPhysicalPlan, "explain", counted)
    try:
        result = session.sql(q.q6_sql())
        assert renders == []
        text = result.plan_explain
        assert renders == [result.physical_plan]
        assert result.plan_explain is text and len(renders) == 1
        assert text.startswith("DagPhysicalPlan (scan, no exchange)")
    finally:
        session.close()
