"""Verification of a finished run against its replay.

``verify`` replays ``augment`` with augment's own code, from the settings
and the mode that the run's ``manifest.json`` recorded, and holds what the
run wrote to that replay. The pipeline is deterministic, so the replay
gives the run's outputs exactly, scores to the last bit. The comparisons
live here:

- ``text_violations`` holds an output file, ``provenance.jsonl`` or a
  corpus file, to the text the replay would write, in one streamed pass
  over the open file: each replayed piece is encoded and compared with as
  many bytes of the file. It names the first differing line.
- ``verify_records`` serves only a ``provenance.jsonl`` that differs. It
  holds the accepted records that ``read_provenance`` gives to the records
  the replay keeps, in order and each as its ``provenance.jsonl`` line:
  each field's JSON text, which also tells ``1`` from ``true`` and from
  ``1.0``. ``difflib.SequenceMatcher`` pairs the two lists of lines. A
  record edited in place has each field that differs named; a record that
  the file holds and the replay does not is "not accepted by the run", and
  one that the replay holds and the file does not is "missing", one
  violation each.
- ``json_violations`` holds a value of ``manifest.json`` to the replay's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from difflib import SequenceMatcher
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Tuple

from .pipeline import _ENCODE, ReplacementRecord, _provenance_line


@dataclass(frozen=True)
class Violation:
    """One way the run differs from its replay: where (``record N``, which
    counts the accepted records from 0, or a file), the field and how."""

    where: str
    field: str
    detail: str

    def __str__(self) -> str:
        return f"{self.where}: {self.field}: {self.detail}"


_FIELDS = tuple(field.name for field in fields(ReplacementRecord))


def _differences(record: ReplacementRecord, again: ReplacementRecord) -> Iterator[Tuple[str, str]]:
    """(field, detail) for each field of ``record`` whose JSON text differs
    from that of the replayed ``again``."""
    for name in _FIELDS:
        recorded, recomputed = getattr(record, name), getattr(again, name)
        if _ENCODE(recorded) != _ENCODE(recomputed):
            yield name, f"recorded {recorded!r} != recomputed {recomputed!r}"


def verify_records(
    records: Sequence[ReplacementRecord], replayed: Sequence[ReplacementRecord]
) -> List[Violation]:
    """Hold the accepted ones of ``records`` to the ``replayed`` records of
    the run, in order. Returns the violations in record order, none when
    both give the same lines. Rejected records are ignored (they assert
    nothing)."""
    accepted = [record for record in records if record.accepted]
    lines = [_provenance_line(record) for record in accepted]
    again = [_provenance_line(record) for record in replayed]
    violations: List[Violation] = []
    for tag, i1, i2, j1, j2 in SequenceMatcher(None, lines, again, autojunk=False).get_opcodes():
        if tag == "equal":
            continue
        for i, j in zip_longest(range(i1, i2), range(j1, j2)):
            if j is None:
                violations.append(Violation(f"record {i}", "record", "not accepted by the run"))
            elif i is None:
                missed = replayed[j]
                violations.append(Violation(
                    f"record {i2}", "record",
                    f"missing: the run accepted {missed.item_kind} "
                    f"{' '.join(missed.item_surface)!r} on sentence {missed.base_sentence_id}",
                ))
            else:
                violations += [Violation(f"record {i}", name, detail)
                               for name, detail in _differences(accepted[i], replayed[j])]
    return violations


def json_violations(where: str, key: str, recorded: object, replayed: object) -> List[Violation]:
    """A violation when ``recorded`` and ``replayed`` differ as JSON text."""
    texts = [json.dumps(value, sort_keys=True) for value in (recorded, replayed)]
    if texts[0] == texts[1]:
        return []
    return [Violation(where, key, f"recorded {texts[0]} != replayed {texts[1]}")]


def _line_text(line: bytes) -> str:
    return repr(line.decode("utf-8", "replace")) if line else "end of file"


_CHUNK = 1 << 16


def text_violations(path: Path, texts: Iterable[str]) -> List[Violation]:
    """A violation naming the first line of the file at ``path`` that
    differs from the replayed ``texts``, compared as UTF-8 bytes. Each of
    ``texts`` is whole lines; each is compared with the next as many bytes
    of the file, and only a difference is located."""
    with open(path, "rb") as fh:
        offset = 0  # the bytes of the file that match
        for text in texts:
            replayed = text.encode("utf-8")
            recorded = fh.read(len(replayed))
            if recorded != replayed:
                break
            offset += len(replayed)
        else:
            replayed, recorded = b"", fh.read(1)
            if not recorded:
                return []
        same = next((i for i, (a, b) in enumerate(zip(recorded, replayed)) if a != b),
                    min(len(recorded), len(replayed)))
        start = replayed.rfind(b"\n", 0, same) + 1
        end = replayed.find(b"\n", start) + 1 or len(replayed)
        fh.seek(0)
        lineno = 1
        while fh.tell() < offset + start:
            lineno += fh.read(min(_CHUNK, offset + start - fh.tell())).count(b"\n")
        line = fh.readline()
    return [Violation(f"{path}:{lineno}", "line",
                      f"recorded {_line_text(line)} != replayed {_line_text(replayed[start:end])}")]
