"""Discrete Bayesian network over a declared DAG, plus the two
causal-strength measures: average causal effect under backdoor
adjustment, and conditional mutual information.

Every conditional table, fitted or exact, is one dense array shaped
``(|parent_1|, ..., |parent_m|, K)``: one axis per parent in
``graph.parents(node)`` order (node declaration order), sized by the
graph's category counts, then the node's own K categories.  The full
joint (``joint_tensor``) is the broadcast product of these arrays with
one axis per node in declaration order.

Estimates from data read two sufficient statistics in the same layout,
each built by one ``bincount`` over the rows (``count_tensors``): the
joint count tensor N, and per outcome the moment tensor S holding the
sum of that outcome over each cell's rows.  ``fit_cpts`` reads family
marginals of N, backdoor ACE the (parents(T), T) marginals of N and S,
and CMI the (x, y, z) marginal of N.  Past 10^7 cells a tensor is
refused with StateExplosionError, as the joint is.

A ``DiscreteDataset`` is built from its code matrix: ``synth`` samples
codes and ``discretize`` bins values straight to them, so no dataset is
ever assembled from label strings.

The graph type, ``CausalGraph``, is defined in ``ingest`` (which loads
no NumPy) and imported here.  The graph owns each node's categories.
``fit_cpts``, ``ace`` and ``edge_report`` raise SchemaError naming the
first node they read whose dataset categories are not the graph's, in
name and order, so every tensor is sized by the graph.

The network is fitted with additive (Laplace) smoothing; a parent
configuration never observed is uniform 1/K for every alpha, alpha=0
included, so the joint factorization always normalizes.  ACE adjusts on
the treatment's parents, which block every backdoor path in any DAG;
for exogenous treatments this reduces to a difference of conditional
means.  CMI is a plug-in estimate from the smoothed empirical
contingency table, clamped at zero from below.  All information
quantities are in nats.

A dataset file is this module's in both directions.  ``write_dataset``
streams its text (``dataset_pieces``), then its sidecar
``.<name>.arrays`` (``sidecar_pieces``): the arrays the text reads back
as, the text's length and SHA-256, and a trailer hashing the sidecar's
own bytes.  ``load_dataset`` reads the sidecar when it matches the text,
its own trailer and this package version (``read_sidecar``), and the
text otherwise (``DiscreteDataset.from_file``), so deleting a sidecar
only makes the next read parse the text.  A text in the writer's layout
is read in one forward pass into arrays, and kept only when the writer
gives the whole file back (``_canonical_dataset``).
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import re
import stat
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__, ingest
from .errors import (
    EmptyStratumError,
    IoError,
    MissingVariableError,
    NotNormalizedError,
    SchemaError,
    StateExplosionError,
    UnknownLevelError,
)
from .ingest import CausalGraph

_NORM_TOL = 1e-9
_STATE_LIMIT = 10 ** 7


class DiscreteDataset:
    """Complete category assignments, optionally with continuous columns.

    Rows are stored as integer codes into each variable's declared
    category list, in the narrowest dtype that holds every code
    (``code_dtype``: one byte up to 256 categories); ``column`` widens a
    variable's codes to int64.  ``continuous`` carries per-row real
    outcomes (for this toolkit, per-utterance error rates in percent)
    keyed by column name.
    """

    def __init__(self, variables: Sequence[str],
                 categories: Mapping[str, Sequence[str]],
                 codes: np.ndarray,
                 continuous: Mapping[str, np.ndarray] | None = None):
        self.variables = list(variables)
        self.categories = {v: tuple(categories[v]) for v in self.variables}
        codes = np.asarray(codes)
        if codes.size and codes.dtype.kind not in "iu":
            raise SchemaError("category codes must be integers")
        if codes.ndim != 2 or codes.shape[1] != len(self.variables):
            raise SchemaError("codes must be an (n, #variables) array")
        # range-checked in their own dtype, so narrowing wraps none
        for j, var in enumerate(self.variables):
            k = len(self.categories[var])
            col = codes[:, j]
            if col.size and (col.min() < 0 or col.max() >= k):
                raise SchemaError(f"variable {var!r}: code out of range")
        self.codes = codes.astype(
            code_dtype(len(c) for c in self.categories.values()), copy=False)
        self.continuous = {k: np.asarray(v, dtype=np.float64)
                           for k, v in (continuous or {}).items()}
        for name, col in self.continuous.items():
            if col.shape != (len(self.codes),):
                raise SchemaError(f"continuous column {name!r}: wrong length")

    def __len__(self) -> int:
        return len(self.codes)

    def column(self, variable: str) -> np.ndarray:
        """A variable's codes as int64, so arithmetic on them cannot
        overflow the narrow stored dtype."""
        return self._stored(variable).astype(np.int64)

    def _stored(self, variable: str) -> np.ndarray:
        """A variable's codes in the stored dtype: a view, no copy."""
        try:
            j = self.variables.index(variable)
        except ValueError:
            raise MissingVariableError(
                f"variable {variable!r} not in dataset") from None
        return self.codes[:, j]

    def to_document(self) -> dict:
        """The dataset document, holding the dataset's own arrays: the
        ``codes`` as ``rows`` and each continuous column, not list
        copies.  ``ingest.write_report`` writes an array as its
        ``tolist()``; ``dataset_pieces`` writes the same bytes a slice
        at a time, formatted by NumPy."""
        return {
            "variables": [{"name": v, "categories": list(self.categories[v])}
                          for v in self.variables],
            "rows": self.codes,
            "continuous": dict(sorted(self.continuous.items())),
        }

    @classmethod
    def from_document(cls, doc: dict) -> "DiscreteDataset":
        """Read a dataset document.  ``rows`` must be equal-length lists
        of JSON integers and each continuous column a list of numbers;
        a bool in either is SchemaError."""
        try:
            categories = _variables_of(doc["variables"])
            rows = doc["rows"]
            continuous = doc.get("continuous", {}).items()
        except (KeyError, TypeError, AttributeError) as exc:
            raise SchemaError(f"bad dataset document: {exc}") from None
        codes = _typed_array(
            rows, "iu", "dataset rows must be equal-length lists of integer "
                        "category codes")
        if codes.size == 0:
            codes = codes.reshape(0, len(categories))
        return cls(list(categories), categories, codes, {
            name: _typed_array(values, "iuf",
                               f"continuous column {name!r} must hold numbers")
            for name, values in continuous})

    @classmethod
    def from_file(cls, file: BinaryIO) -> "DiscreteDataset":
        """Read a dataset file open for binary reading, from its text:
        how ``load_dataset`` reads one without a matching sidecar (one
        written by hand or by another tool, one whose sidecar is missing
        or stale, or a pipe).  A file that opens as ``dataset_pieces``
        writes one is read straight into arrays in one forward pass,
        ``_BLOCK_BYTES`` at a time, and kept only when the writer gives
        the whole file back (``_canonical_dataset``).  Any other text is
        read whole, by ``ingest.load_json`` and ``from_document``, with
        their errors; bytes that are not UTF-8 are SchemaError.  Both
        give equal datasets for the same document.  A pipe, which cannot
        be read twice, is read whole first.
        """
        if not file.seekable():
            file = io.BytesIO(file.read())
        dataset = _canonical_dataset(file)
        if dataset is not None:
            return dataset
        file.seek(0)
        try:
            text = file.read().decode()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc.reason}") from None
        return cls.from_document(ingest.load_json(text))


def code_dtype(counts: Iterable[int]) -> np.dtype:
    """The dtype of a dataset's codes: the narrowest unsigned integer
    that holds a code of every variable, given each one's category count
    (``uint8`` up to 256 categories, ``uint16`` up to 65,536)."""
    return np.min_scalar_type(max(max(counts, default=0) - 1, 0))


def _variables_of(entries) -> dict[str, tuple[str, ...]]:
    """A document's ``variables`` as ``ingest.read_labels`` reads them."""
    return ingest.read_labels(((v["name"], v["categories"]) for v in entries),
                              "variable")


def _typed_array(values, kinds: str, message: str) -> np.ndarray:
    """``np.array(values)``, raising SchemaError(message) when it is
    ragged, has (unless empty) a dtype kind outside ``kinds``, or holds a
    bool, which NumPy would read as an integer."""
    try:
        array = np.array(values)
    except ValueError:
        raise SchemaError(message) from None
    if array.size and array.dtype.kind not in kinds:
        raise SchemaError(message)
    items = values
    for _ in range(array.ndim - 1):
        items = itertools.chain.from_iterable(items)
    if array.ndim and bool in set(map(type, items)):
        raise SchemaError(message)
    return array


# --- canonical dataset files ---------------------------------------------------
#
# ``dataset_pieces`` writes a dataset file, the bytes of
# ``ingest.write_report(DiscreteDataset.to_document())``, as
#
#   {\n "continuous": {\n  "<name>": [\n   <float>,\n   ...\n  ],\n  ...\n },
#   \n "rows": [\n  [\n   <code>,\n   ...\n  ],\n  ...\n ],
#   \n "variables": [...]\n}\n
#
# (an empty list or object as "[]" or "{}"), each number section a
# ``_CHUNK`` slice at a time, formatted by ``array_text``.
# ``_canonical_dataset`` reads a file in one forward pass, a block of
# whole lines at a time.  ``_KEY`` finds the lines that start a section:
# '\n  "<name>": ' a continuous column, '\n "rows": ' and
# '\n "variables": ' the other two.  A string holds no raw newline, so the
# indent tells a column named "rows" from the rows.  The numbers between
# key lines are read with no check of the layout around them; the file
# is kept only when ``dataset_pieces`` gives back all of its bytes, and
# any other text goes to the general reader.

_HEAD = b'{\n "continuous": '
_ROWS_KEY = b',\n "rows": '
_VARIABLES_KEY = b',\n "variables": '
_TAIL = b"\n}\n"
_KEY = re.compile(rb'\n(?:  ("(?:[^"\\\n]|\\.)*")| "(rows|variables)"): ')
_CHUNK = 4096  # list items written per piece
_BLOCK_BYTES = 1 << 18  # bytes read at a time


def dataset_pieces(data: DiscreteDataset) -> Iterator[bytes]:
    """The dataset file of ``data``, in the layout above, as consecutive
    bytes pieces: the bytes of ``ingest.write_report(data.to_document())``.
    No piece holds more than one ``_CHUNK`` slice of a list, so writing
    them out one by one holds neither the text nor a list copy of an
    array."""
    doc = data.to_document()
    yield _HEAD
    lead = b"{"
    for name, column in doc["continuous"].items():
        yield lead + b"\n  " + json.dumps(name).encode() + b": "
        yield from _list_pieces(column, "\n   ")
        lead = b","
    yield b"\n }" if doc["continuous"] else b"{}"
    yield _ROWS_KEY
    yield from _list_pieces(doc["rows"], "\n  ")
    yield _VARIABLES_KEY
    # one level deeper than write_report puts it; a newline is only ever
    # structural, as strings escape theirs
    yield ingest.write_report(doc["variables"])[:-1].replace(
        "\n", "\n ").encode()
    yield _TAIL


def _list_pieces(values: np.ndarray, ind: str) -> Iterator[bytes]:
    """The JSON list of an array's items, indented by ``ind``, a
    ``_CHUNK`` slice at a time."""
    if not len(values):
        yield b"[]"
        return
    lead = ("[" + ind).encode()
    for i in range(0, len(values), _CHUNK):
        yield lead
        yield array_text(values[i:i + _CHUNK], ind)
        lead = ("," + ind).encode()
    yield ind[:-1].encode() + b"]"


def array_text(values: np.ndarray, ind: str) -> bytes:
    """The items of a non-empty 1-D float array (a continuous column) or
    2-D integer array (code rows), as a JSON list whose items are
    indented by ``ind`` holds its ``tolist()``, quantized as
    ``ingest.write_report`` quantizes: ``","``-separated, without the
    brackets and the first item's indent.

    A float slice and rows with at least one column and every code in
    ``[0, 1000)`` are formatted by NumPy into a byte matrix
    (``_float_array_body``, ``_int_array_rows_body``).  Other rows (no
    columns, or a code outside ``[0, 1000)``) are written by
    ``json.dumps`` and re-indented to ``ind``.
    """
    if values.ndim == 1:
        return _float_array_body(values, "," + ind)
    if values.shape[1] and values.min() >= 0 and values.max() < 1000:
        return _int_array_rows_body(values, ind)
    return json.dumps(values.tolist(), indent=1)[3:-2].replace(
        "\n", ind[:-1]).encode()


# An array slice is written from a (width, n) uint8 matrix: one column
# per item holding its bytes, with a zero byte wherever the text has no
# character, so one ``bytes.translate(None, b"\0")`` of the transposed
# matrix gives the text.  The (width, n) layout keeps each row, filled by
# one NumPy operation, contiguous.
#
# _float_array_body writes ±0.0 and a finite float whose magnitude is in
# [_FIXED_LO, _FIXED_HI) from the digits of |x| * 10**6 rounded to an
# integer: at most 15 of them, in the range repr writes in fixed
# notation.
_FIXED_LO = 1e-4
_FIXED_HI = 1e9
# Rows of a float item: sign, the 18 digits of k = round(|x| * 10**6) (12
# of the integer part, 6 of the fraction) with the point between, then
# the separator.  The groups of three digits start at these rows, least
# significant first.
_SIGN, _POINT, _FLOAT_ROWS = 0, 13, 20
_GROUP_ROWS = (17, 14, 10, 7, 4, 1)
_SPLICE = b"\1"  # stands for an item written one at a time


# (3, 1000) uint8 tables: column v of _DIGIT_GROUPS holds the ASCII
# digits of "%03d" % v, and of _CODE_GROUPS the text of "%d" % v,
# right-aligned, its leading zeros as zero bytes
_DIGIT_GROUPS = (np.arange(1000) // np.array([[100], [10], [1]]) % 10
                 + ord("0")).astype(np.uint8)
_CODE_GROUPS = np.where(np.arange(1000) >= np.array([[100], [10], [0]]),
                        _DIGIT_GROUPS, 0).astype(np.uint8)


def _fixed_point(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(k, fast)`` for a float64 array ``x``: ``k``, as float64, is
    ``rint(|x| * 10**6)`` and ``fast`` marks the items whose text is the
    digits of ``k`` (elsewhere ``k`` means nothing).

    ``0.0`` and ``-0.0`` are both ``k = 0``, written ``0.0`` as
    ``ingest._quantize`` makes them.  For finite ``1e-4 <= |x| < 1e9``,
    ``round(x, 6)`` is the double nearest ``d = ±k / 10**6``, ``k``
    being the exact ``|x| * 10**6`` rounded half to even.  ``d`` has at
    most 15 significant digits (``k <= 10**15``), and no two such
    decimals read back as one double, so ``repr`` writes ``d``, in fixed
    notation in this band: the digits of ``k``, the point six from the
    right, less leading integer and trailing fraction zeros (keeping
    ``0.`` and ``.0``).  ``y = |x| * 1e6`` is off the exact product by
    at most half of ``spacing(y)``, so where ``| |y - k| - 0.5 | >
    spacing(y)`` no ``.5`` boundary lies between them and ``k =
    rint(y)``.  The other items (a near-tie, out of the band, NaN, ±inf)
    are written as ``json.dumps(ingest._quantize(x))``.
    """
    a = np.abs(x)
    band = ((a >= _FIXED_LO) & (a < _FIXED_HI)) | (a == 0.0)
    a[~band] = 1.0  # keeps NaN and inf out of the arithmetic below
    y = a * 1e6
    k = np.rint(y)
    return k, band & (np.abs(np.abs(y - k) - 0.5) > np.spacing(y))


def float_read_back(values: np.ndarray) -> np.ndarray:
    """The float64 array that reading the text ``_float_array_body``
    writes for the finite 1-D float array ``values`` gives back: ``±k /
    10**6`` where ``_fixed_point`` finds the item fast (``k / 1e6`` is
    that double, as one IEEE division rounds correctly), else
    ``ingest._quantize(x)``, whose ``repr`` reads back as itself."""
    x = values.astype(np.float64)
    k, fast = _fixed_point(x)
    k /= 1e6
    # x < 0, not the sign bit: -0.0 is written "0.0"
    np.negative(k, out=k, where=x < 0.0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        k[slow] = [ingest._quantize(v) for v in x[slow].tolist()]
    return k


def _float_array_body(values: np.ndarray, sep: str) -> bytes:
    """The items of a 1-D float array slice, ``sep``-joined, as
    ``ingest.write_report`` writes its ``tolist()``, whatever the items:
    a fast item (``_fixed_point``) from the digits of its ``k``,
    formatted by NumPy, and every other item by
    ``json.dumps(ingest._quantize(x))``, spliced in by index.
    """
    x = values.astype(np.float64)  # exact, as tolist() widens
    k, fast = _fixed_point(x)
    k = k.astype(np.int64)

    sep_bytes = sep.encode()
    m = np.empty((_FLOAT_ROWS + len(sep_bytes), len(x)), np.uint8)
    # x < 0, not the sign bit: -0.0 is written "0.0"
    np.multiply(x < 0.0, ord("-"), out=m[_SIGN], casting="unsafe")
    rest = k
    for row in _GROUP_ROWS:
        rest, group = np.divmod(rest, 1000)
        _DIGIT_GROUPS.take(group, axis=1, out=m[row:row + 3], mode="clip")
    m[_POINT] = ord(".")
    # leading integer zeros, then trailing fraction zeros; the units
    # digit and the first fraction digit stay
    _zero_runs(m, range(_SIGN + 1, _POINT - 1))
    _zero_runs(m, range(_FLOAT_ROWS - 1, _POINT + 1, -1))
    m[_FLOAT_ROWS:] = np.frombuffer(sep_bytes, np.uint8)[:, None]
    m[_FLOAT_ROWS:, -1] = 0
    slow = np.flatnonzero(~fast)
    if slow.size:
        m[:_FLOAT_ROWS, slow] = 0
        m[_SIGN, slow] = ord(_SPLICE)
    text = m.T.tobytes().translate(None, b"\0")
    if not slow.size:
        return text
    parts = text.split(_SPLICE)
    slow_texts = [json.dumps(ingest._quantize(v)).encode()
                  for v in x[slow].tolist()]
    return b"".join(itertools.chain.from_iterable(
        zip(parts, slow_texts))) + parts[-1]


def _zero_runs(m: np.ndarray, rows: range) -> None:
    """Zero, in each column of ``m``, the run of ``"0"`` bytes that
    starts at the first of ``rows`` and goes on through them in order."""
    run = m[rows[0]] == ord("0")
    for row in rows:
        run &= m[row] == ord("0")
        m[row][run] = 0


def _int_array_rows_body(rows: np.ndarray, ind: str) -> bytes:
    """The rows of a 2-D integer array slice with at least one column and
    every code in ``[0, 1000)``, ``","``-separated, each on a line
    indented by ``ind``, as ``ingest.write_report`` writes its
    ``tolist()``; each code's text is taken from ``_CODE_GROUPS``."""
    cols = rows.shape[1]
    cell = (ind + " ").encode()
    # one row: "[", per code its cell, three digit bytes and "," (none
    # after the last), then ind + "]" and, but after the last row, "," + ind
    code = cell + b"\0\0\0,"
    template = (b"[" + code * (cols - 1) + code[:-1] + b"\0"
                + ind.encode() + b"]," + ind.encode())
    m = np.empty((len(template), len(rows)), np.uint8)
    m[:] = np.frombuffer(template, np.uint8)[:, None]
    m[-len(ind) - 1:, -1] = 0
    # (byte of a code's text, column, row)
    codes = (m[1:1 + cols * len(code)].reshape(cols, len(code), len(rows))
             .swapaxes(0, 1))
    at = len(cell)
    codes[at:at + 3] = _CODE_GROUPS.take(rows.T, axis=1)
    return m.T.tobytes().translate(None, b"\0")


def _canonical_dataset(file: BinaryIO) -> DiscreteDataset | None:
    """The dataset in ``file`` when it is in the layout above, else None.

    One forward pass reads the file leniently (``_line_blocks``): each
    block of a number section is one ``_numbers`` call with the brackets,
    spaces and newlines dropped, and only ``_HEAD`` is checked.  The
    dataset is kept only when ``dataset_pieces`` gives back the file byte
    for byte, compared a piece at a time in a second pass, so one is
    returned only when ``from_document(json.loads(text))`` returns an
    equal one.  A column name or ``variables`` that ``json`` cannot read
    (nested too deeply included), ``variables`` that ``_variables_of``
    refuses, or a dataset the constructor refuses is None too, so the
    general reader raises its error.
    """
    if file.read(len(_HEAD)) != _HEAD:
        return None
    # each number section by its column name's JSON text, the rows by None
    sections: dict[bytes | None, np.ndarray] = {}
    key, blocks, variables = None, [], []
    for text in _line_blocks(file):
        if variables:
            variables.append(text)
            continue
        at = 0
        # a number section holds no quote, so most blocks need no search
        for found in [*(_KEY.finditer(text) if b'"' in text else ()), None]:
            if key is not None:
                values = _block_numbers(
                    text[at:found.start() if found else None],
                    codes=key[1] is None)
                if values is None:
                    return None
                blocks.append(values)
            if found is None:
                break
            if key is not None:
                sections[key[1]] = np.concatenate(blocks)
            key, blocks, at = found, [], found.end()
            if found[2] == b"variables":
                variables.append(text[at:])
                break
    codes = sections.pop(None, np.zeros(0, np.uint8))
    try:
        categories = _variables_of(json.loads(
            b"".join(variables).removesuffix(_TAIL)))
        dataset = DiscreteDataset(
            list(categories), categories,
            codes.reshape(-1, len(categories)) if categories
            else codes.reshape(0, 0),
            {json.loads(name): column for name, column in sections.items()})
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError,
            SchemaError):
        return None
    file.seek(0)
    for piece in dataset_pieces(dataset):
        if file.read(len(piece)) != piece:
            return None
    return None if file.read(1) else dataset


def _line_blocks(file: BinaryIO) -> Iterator[bytes]:
    """The rest of ``file`` in blocks of whole lines: each read of
    ``_BLOCK_BYTES`` is cut at its last newline, and what follows it (the
    start of one line) is carried into the next block."""
    carry: list[bytes] = []
    while read := file.read(_BLOCK_BYTES):
        cut = read.rfind(b"\n")
        if cut < 0:
            carry.append(read)
            continue
        yield b"".join([*carry, read[:cut]])
        carry = [read[cut:]]
    yield b"".join(carry)


def _block_numbers(text: bytes, codes: bool) -> np.ndarray | None:
    """The numbers of one block of a number section, read with its
    brackets, spaces, newlines and outer commas dropped: codes in the
    narrowest unsigned dtype that holds the block's largest, floats as
    float64; else None.  A negative code is refused, so none wraps, and
    so is a float that is not finite: ``np.fromstring`` reads
    ``Infinity``, which only ``json`` takes."""
    values = _numbers(text.translate(None, b"{}[] \n").strip(b","),
                      np.int64 if codes else np.float64)
    if values is None or not values.size:
        return values
    if codes:
        return (None if values.min() < 0
                else values.astype(np.min_scalar_type(values.max())))
    return values if np.isfinite(values).all() else None


def _numbers(text: bytes, dtype) -> np.ndarray | None:
    """``np.fromstring(text, dtype, sep=",")``, or None when an item is
    not read to its end (a ValueError, or a DeprecationWarning before
    NumPy 2)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromstring(text, dtype=dtype, sep=",")
        except (ValueError, DeprecationWarning):
            return None


# --- array sidecars ----------------------------------------------------------
#
# A sidecar holds the arrays a dataset file's text reads back as, so the
# text need not be parsed again.  It is a header, written by
# ``ingest.write_report`` (so its last line, and only that one, is "}"),
# then the raw bytes of the codes in C order and of each continuous
# column in the header's order, then a trailer line: the SHA-256 (hex) of
# every byte before it.  The header holds the format tag, the package
# version, the text's length and SHA-256, the ``variables`` as the text
# holds them, the row count, the codes' dtype and the column names, and
# the byte order of codes and floats.  No pickle and no timestamps: its
# bytes depend only on the dataset.

SIDECAR_FORMAT = "asrcausal dataset arrays 2"
_SIDECAR_ITEMS = 1 << 14  # floats read back and written at a time
_FLOAT_DTYPE = np.dtype(np.float64).str  # a column's bytes, in this order
_TRAILER_BYTES = 65  # a SHA-256 in hex, then a newline


def sidecar_pieces(data: DiscreteDataset, text_bytes: int,
                   text_sha256: str) -> Iterator | None:
    """The sidecar, in bytes-like pieces, of the dataset file
    ``dataset_pieces`` writes for ``data``, given that text's
    length in bytes and its SHA-256 (hex).  None when the dataset has no
    variables (its text reads back as no rows) or a continuous column
    holds a value that is not finite: such a file is read from its
    text.  Each column is written as
    ``float_read_back`` gives it, a slice at a time, and each
    piece is hashed for the trailer as it goes out, so no copy of it is
    held."""
    if not data.variables or not all(
            np.isfinite(column).all() for column in data.continuous.values()):
        return None
    doc = data.to_document()
    header = {"format": SIDECAR_FORMAT, "version": __version__,
              "bytes": text_bytes, "sha256": text_sha256,
              "variables": doc["variables"], "rows": len(data),
              "codes": data.codes.dtype.str, "floats": _FLOAT_DTYPE,
              "continuous": list(doc["continuous"])}

    def payload():
        yield ingest.write_report(header).encode()
        yield np.ascontiguousarray(data.codes).reshape(-1).view(np.uint8)
        for column in doc["continuous"].values():
            for i in range(0, len(column), _SIDECAR_ITEMS):
                yield float_read_back(column[i:i + _SIDECAR_ITEMS])

    def pieces():
        digest = _sha256()
        for piece in payload():
            digest.update(piece)
            yield piece
        yield digest.hexdigest().encode() + b"\n"
    return pieces()


def read_sidecar(sidecar: BinaryIO, text: BinaryIO) -> DiscreteDataset | None:
    """The dataset in ``sidecar`` when it is whole and was written by
    this package version for the bytes ``text`` holds: their length, then
    their SHA-256, computed a block at a time, must match, and so must
    the sidecar's own trailer.  Otherwise None, and the text must be read
    (``DiscreteDataset.from_file``).

    The sidecar's size is checked before any allocation, and the arrays
    are read straight into their final buffers and hashed there.  A
    dataset the constructor rejects is None too.
    """
    header = _sidecar_header(sidecar)
    try:
        categories = _variables_of(header["variables"])
        rows, names = header["rows"], header["continuous"]
        digest = header["sha256"]
        dtype = code_dtype(len(c) for c in categories.values())
        if not (header["format"] == SIDECAR_FORMAT
                and header["version"] == __version__
                and header["bytes"] == text.seek(0, io.SEEK_END)
                and header["codes"] == dtype.str
                and header["floats"] == _FLOAT_DTYPE
                and categories and type(rows) is int and rows >= 0
                and all(type(name) is str for name in names)
                and names == sorted(set(names))):
            return None
    except (KeyError, TypeError, AttributeError, SchemaError):
        return None
    # the sidecar's size before any allocation, then the text's hash
    at = sidecar.tell()
    payload = rows * (len(categories) * dtype.itemsize + 8 * len(names))
    if (sidecar.seek(0, io.SEEK_END) - at != payload + _TRAILER_BYTES
            or _file_sha256(text) != digest):
        return None
    sidecar.seek(0)
    own = _sha256()
    own.update(sidecar.read(at))
    codes = np.empty((rows, len(categories)), dtype)
    continuous = {name: np.empty(rows) for name in names}
    for array in (codes, *continuous.values()):
        buffer = array.reshape(-1).view(np.uint8)
        if sidecar.readinto(buffer) != array.nbytes:
            return None
        own.update(buffer)
    if sidecar.read() != own.hexdigest().encode() + b"\n":
        return None
    try:
        return DiscreteDataset(list(categories), categories, codes,
                               continuous)
    except SchemaError:
        return None


def _sidecar_header(file: BinaryIO):
    """The JSON header at the start of a sidecar, or None."""
    lines = []
    while (line := file.readline()) != b"}\n":
        if not line:
            return None
        lines.append(line)
    try:
        return json.loads(b"".join(lines) + b"}")
    except (ValueError, RecursionError):
        return None


def _sha256():
    """A new SHA-256 hash object."""
    # imported here: it loads OpenSSL, about 3.6 MB that a read from the
    # text does not need
    import hashlib

    return hashlib.sha256()


def _file_sha256(file: BinaryIO) -> str:
    """The SHA-256 (hex) of a file's bytes, read a block at a time."""
    digest = _sha256()
    block = bytearray(_BLOCK_BYTES)
    file.seek(0)
    while size := file.readinto(block):
        digest.update(memoryview(block)[:size])
    return digest.hexdigest()


# --- dataset files on disk ---------------------------------------------------

def _sidecar_path(path: str) -> Path:
    """The sidecar ``.<name>.arrays`` next to the dataset file ``path``."""
    target = Path(path)
    return target.with_name(f".{target.name}.arrays")


def write_dataset(path: str, data: DiscreteDataset) -> list[str]:
    """Write ``data``'s dataset file to ``path`` (``dataset_pieces``),
    taking its SHA-256 and size as the pieces go out, then its sidecar
    (``sidecar_pieces``) next to it.  Returns the files written.  A
    dataset that gets no sidecar removes any old one; a failed sidecar
    write leaves the old one, which no longer matches the text."""
    digest = _sha256()
    with ingest.replacing(path, "wb") as fh:
        for piece in dataset_pieces(data):
            digest.update(piece)
            fh.write(piece)
        size = fh.tell()
    sidecar = _sidecar_path(path)
    pieces = sidecar_pieces(data, size, digest.hexdigest())
    if pieces is None:
        sidecar.unlink(missing_ok=True)
        return [path]
    with ingest.replacing(str(sidecar), "wb") as fh:
        fh.writelines(pieces)
    return [path, str(sidecar)]


def load_dataset(path: str) -> DiscreteDataset:
    """The dataset in the file ``path``: from its sidecar when ``path`` is
    a regular file and ``read_sidecar`` accepts it, else from its text
    (``DiscreteDataset.from_file``).  An unreadable file is IoError."""
    try:
        with open(path, "rb") as fh:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                try:
                    with open(_sidecar_path(path), "rb") as sidecar:
                        data = read_sidecar(sidecar, fh)
                    if data is not None:
                        return data
                except OSError:
                    pass  # no sidecar, or one that cannot be read
            return DiscreteDataset.from_file(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None


@dataclass
class ConditionalTable:
    """P(node | parents) as one dense array.

    ``probs`` has shape ``(|parent_1|, ..., |parent_m|, K)``: one axis
    per parent, in ``graph.parents(node)`` order and sized by the graph's
    category counts, then one axis over the node's K categories.  A
    fitted table keeps its integer ``counts`` of the same shape, and
    probabilities are (count + alpha) / (total + alpha * K); a parent
    configuration never observed is uniform 1/K for every alpha,
    alpha=0 included.  Exact tables (probabilities given, nothing
    fitted) leave ``counts`` as None.
    """

    node: str
    parents: tuple[str, ...]
    categories: tuple[str, ...]
    parent_categories: tuple[tuple[str, ...], ...]
    probs: np.ndarray
    counts: np.ndarray | None = None
    alpha: float = 1.0

    def dist(self, config: tuple[str, ...]) -> np.ndarray:
        """Probability vector over node categories for one parent config."""
        try:
            idx = tuple(cats.index(label) for cats, label
                        in zip(self.parent_categories, config))
        except ValueError:
            raise UnknownLevelError(
                f"{config} is not a parent configuration of {self.node!r}"
            ) from None
        return self.probs[idx]

    def parent_configs(self) -> Iterator[tuple[str, ...]]:
        yield from itertools.product(*self.parent_categories)

    def validate_normalized(self) -> "ConditionalTable":
        """Raise NotNormalizedError naming the first parent configuration
        whose probabilities are not all finite and >= 0, or do not sum to
        1 within ``_NORM_TOL``."""
        rows = self.probs.reshape(-1, self.probs.shape[-1])
        totals = rows.sum(axis=-1)
        # NaN fails both comparisons, and +inf the second
        bad = np.flatnonzero(~((rows >= 0).all(axis=-1)
                               & (np.abs(totals - 1.0) <= _NORM_TOL)))
        if bad.size:
            config = next(itertools.islice(self.parent_configs(), bad[0], None))
            raise NotNormalizedError(
                f"{self.node!r} | {config}: probabilities "
                f"{rows[bad[0]].tolist()} must be finite, non-negative and "
                f"sum to 1 (they sum to {totals[bad[0]]})")
        return self


def count_tensors(data: DiscreteDataset, variables: Sequence[str],
                  outcomes: Sequence[str] = ()
                  ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Sufficient statistics of ``data`` over ``variables``.

    Returns the joint count tensor N, one axis per variable in the given
    order and sized by its category count, and for each outcome in
    ``outcomes`` (a continuous column, else a variable's ordinal codes)
    the moment tensor S of the same shape: the sum of that outcome over
    each cell's rows, added in row order.  Every row of a cell has the
    cell's code of a variable among ``variables``, so such an outcome's
    S is N times that code along its axis: the same sums, exactly, as
    they are of integers below 2**53.  Raises StateExplosionError past
    10^7 cells.
    """
    shape = tuple(len(data.categories[v]) for v in variables)
    size = math.prod(shape)
    if size > _STATE_LIMIT:
        raise StateExplosionError(
            f"{size} joint states over {list(variables)} exceed {_STATE_LIMIT}")
    flat = np.zeros(len(data), dtype=np.int64)
    for v, k in zip(variables, shape):
        flat *= k
        flat += data._stored(v)  # widened as it is added: no int64 copy
    counts = np.bincount(flat, minlength=size).reshape(shape)
    moments = {}
    for y in outcomes:
        if y in variables and y not in data.continuous:
            axis = list(variables).index(y)
            code = np.arange(shape[axis], dtype=np.float64)
            moments[y] = counts * code.reshape(
                [-1 if i == axis else 1 for i in range(len(shape))])
        else:
            moments[y] = np.bincount(flat, weights=_outcome_vector(data, y),
                                     minlength=size).reshape(shape)
    return counts, moments


def _check_categories(graph: CausalGraph, data: DiscreteDataset,
                 nodes: Sequence[str]):
    """MissingVariableError when the dataset lacks one of ``nodes``;
    SchemaError naming the first whose dataset categories are not the
    graph's, in name and order.  Codes lie within the dataset's
    categories, so they then index the graph's."""
    missing = [n for n in nodes if n not in data.variables]
    if missing:
        raise MissingVariableError(f"dataset lacks variables {missing}")
    for node in nodes:
        if data.categories[node] != graph.categories[node]:
            raise SchemaError(
                f"variable {node!r}: dataset categories "
                f"{list(data.categories[node])} are not the graph's "
                f"{list(graph.categories[node])}")


def _axes_as(graph: CausalGraph, summed: np.ndarray,
             keep: Sequence[str]) -> np.ndarray:
    """A ``marginal`` over the nodes in ``keep`` (axes in declaration
    order), its axes put in the order of ``keep``."""
    kept = [node for node in graph.nodes if node in keep]
    return np.transpose(summed, [kept.index(v) for v in keep])


def fit_cpts(graph: CausalGraph, data: DiscreteDataset, alpha: float = 1.0
             ) -> dict[str, ConditionalTable]:
    """Maximum-likelihood counts with additive-alpha smoothing per node,
    each node's read from the family marginal of one count tensor."""
    _check_categories(graph, data, graph.nodes)
    joint_counts, _ = count_tensors(data, graph.nodes)
    tables = {}
    for node in graph.nodes:
        parents = tuple(graph.parents(node))
        family = (*parents, node)
        counts = np.ascontiguousarray(
            _axes_as(graph, marginal(graph, joint_counts, family), family))
        k = counts.shape[-1]
        total = counts.sum(axis=-1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            probs = np.where(total > 0, (counts + alpha) / (total + alpha * k),
                             1.0 / k)
        tables[node] = ConditionalTable(
            node, parents, graph.categories[node],
            tuple(graph.categories[p] for p in parents), probs,
            counts=counts, alpha=alpha)
    return tables


def joint_tensor(graph: CausalGraph, tables: Mapping[str, ConditionalTable],
                 do: Mapping[str, str] | None = None) -> np.ndarray:
    """Full joint distribution with one axis per node (declaration
    order), optionally under do-surgery that fixes some nodes' levels."""
    if graph.state_space() > _STATE_LIMIT:
        raise StateExplosionError(
            f"state space {graph.state_space()} exceeds {_STATE_LIMIT}")
    axis = {node: i for i, node in enumerate(graph.nodes)}
    shape = tuple(len(graph.categories[n]) for n in graph.nodes)
    joint = np.ones(shape)
    for node in graph.nodes:
        cats = graph.categories[node]
        if do is not None and node in do:
            if do[node] not in cats:
                raise UnknownLevelError(
                    f"{do[node]!r} is not a category of {node!r}")
            factor = np.zeros(len(cats))
            factor[cats.index(do[node])] = 1.0
            participating = (node,)
        else:
            table = tables[node]
            factor = table.probs
            participating = table.parents + (node,)
        # parents are already in declaration order; only the node's own
        # axis may need to move among them
        positions = [axis[v] for v in participating]
        factor = np.transpose(factor, np.argsort(positions))
        dims = [1] * len(shape)
        for v in participating:
            dims[axis[v]] = shape[axis[v]]
        joint = joint * factor.reshape(dims)
    return joint


def marginal(graph: CausalGraph, joint: np.ndarray, keep: Sequence[str]
             ) -> np.ndarray:
    """Sum a ``joint_tensor`` over every node not in ``keep``; the kept
    axes stay in declaration order."""
    return joint.sum(axis=tuple(i for i, node in enumerate(graph.nodes)
                                if node not in keep))


# --- information measures ----------------------------------------------------

def _check_normalized(p: np.ndarray):
    if not np.all(p >= 0):
        raise NotNormalizedError("negative or NaN probability")
    total = float(p.sum())
    if abs(total - 1.0) > _NORM_TOL:
        raise NotNormalizedError(f"probabilities sum to {total}")


def entropy(dist: Sequence[float]) -> float:
    """Shannon entropy -sum p ln p in nats, with 0 ln 0 := 0."""
    p = np.asarray(dist, dtype=np.float64).ravel()
    _check_normalized(p)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def conditional_mutual_information(data: DiscreteDataset, x: str, y: str,
                                   z: Sequence[str] = (),
                                   alpha: float = 1.0) -> float:
    """Plug-in I(X; Y | Z) from the alpha-smoothed contingency table.

    With an empty conditioning set this is exactly the mutual
    information of the smoothed empirical joint.  Clamped at zero from
    below, so smoothing noise never produces a negative dependence.
    """
    z = list(z)
    if x in z or y in z:
        raise MissingVariableError("x and y must not appear in z")
    for v in (x, y, *z):
        if v not in data.variables:
            raise MissingVariableError(f"variable {v!r} not in dataset")
    counts, _ = count_tensors(data, [x, y, *z])
    return _cmi_from_counts(counts, alpha)


def _cmi_from_counts(counts: np.ndarray, alpha: float) -> float:
    """CMI of the table ``counts`` with axes (x, y, z_1, ..., z_m)."""
    kx, ky = counts.shape[:2]
    # reshape copies a transposed marginal into (x, y, z) order, so the
    # normalizing sum adds the cells in the same order for every caller
    p = counts.reshape(-1).astype(np.float64) + alpha
    p /= p.sum()
    p = p.reshape(kx, ky, -1)
    p_z = p.sum(axis=(0, 1))
    p_xz = p.sum(axis=1)
    p_yz = p.sum(axis=0)
    i, j, k = np.nonzero(p > 0)
    cell = p[i, j, k]
    out = np.sum(cell * np.log(cell * p_z[k] / (p_xz[i, k] * p_yz[j, k])))
    return float(max(0.0, out))


# --- average causal effect ----------------------------------------------------

def _arms(graph: CausalGraph, treatment: str, lo: str | None = None,
          hi: str | None = None) -> tuple[tuple[str, int], tuple[str, int]]:
    """(level, category index) of the high arm, then of the low arm; the
    levels default to the last and the first category."""
    cats = graph.categories[treatment]
    lo = cats[0] if lo is None else lo
    hi = cats[-1] if hi is None else hi
    for level in (lo, hi):
        if level not in cats:
            raise UnknownLevelError(
                f"{level!r} is not a category of {treatment!r}")
    return (hi, cats.index(hi)), (lo, cats.index(lo))


def _outcome_vector(data: DiscreteDataset, effect: str) -> np.ndarray:
    """Per-row outcome: a continuous column when present, else the
    effect node's ordinal category index."""
    if effect in data.continuous:
        return data.continuous[effect]
    if effect in data.variables:
        return data._stored(effect).astype(np.float64)
    raise MissingVariableError(f"effect {effect!r} not in dataset")


def ace(graph: CausalGraph, data: DiscreteDataset, treatment: str,
        effect: str, level_lo: str | None = None,
        level_hi: str | None = None, *, on_empty: str = "error") -> float:
    """Average causal effect E[Y | do(X=hi)] - E[Y | do(X=lo)] in
    ``data``.

    Backdoor adjustment over Z = parents(treatment):
    E[Y | do(x)] = sum_z E[Y | x, z] P(z), read from the (Z, treatment)
    cell counts and outcome sums over the rows.  Levels default to the
    first and last treatment category; ``ace_per_level`` gives the
    per-level value that edge records carry.  A stratum missing one of
    the two treatment arms raises EmptyStratumError unless
    ``on_empty='skip'``, which drops it and renormalizes the stratum
    weights.  The dataset's categories for every node read must be the
    graph's, else SchemaError.
    """
    if treatment not in graph.nodes:
        raise MissingVariableError(f"treatment {treatment!r} not in graph")
    arms = _arms(graph, treatment, level_lo, level_hi)
    adjust = graph.parents(treatment)
    family = (*adjust, treatment)
    # an effect node without a continuous column is read as its codes
    _check_categories(graph, data, family if effect in data.continuous
                      or effect not in graph.nodes else (*family, effect))
    mass, moments = count_tensors(data, family, [effect])
    return _ace_from_counts(mass, moments[effect], treatment, effect, adjust,
                            arms, on_empty)


def ace_per_level(graph: CausalGraph, treatment: str, value: float) -> float:
    """An ACE divided by the treatment's #levels - 1; 0.0 for a
    one-category treatment, whose only ACE is 0."""
    steps = len(graph.categories[treatment]) - 1
    return value / steps if steps else 0.0


def _ace_from_counts(counts: np.ndarray, moment: np.ndarray, treatment: str,
                     effect: str, adjust: Sequence[str], arms,
                     on_empty: str) -> float:
    """Backdoor ACE of ``treatment`` on ``effect`` from the count (or
    probability mass) and outcome-moment tables with axes (adjust...,
    treatment); ``arms`` as ``_arms`` gives them.  EmptyStratumError
    names the edge, the empty arm and level, and the strata counted."""
    n_cfg = counts.size // counts.shape[-1]
    counts = counts.reshape(n_cfg, -1)
    moment = moment.reshape(n_cfg, -1)
    z_counts = counts.sum(axis=1).astype(np.float64)
    diffs = np.zeros(n_cfg)
    usable = z_counts > 0
    held = int(usable.sum())
    edge = f"{treatment}->{effect}"
    skipped = []
    for (level, code), sign in zip(arms, (1.0, -1.0)):
        cell_n = counts[:, code]
        cell_sum = moment[:, code]
        empty = usable & (cell_n == 0)
        if np.any(empty):
            where = (f"{treatment}={level} is empty in {int(empty.sum())} "
                     f"of {held} populated strata of {adjust}")
            if on_empty != "skip":
                raise EmptyStratumError(f"{edge}: {where}")
            skipped.append(where)
            usable &= cell_n > 0
        with np.errstate(invalid="ignore"):
            means = np.where(cell_n > 0,
                             cell_sum / np.where(cell_n > 0, cell_n, 1), 0.0)
        diffs += sign * means
    weight = z_counts * usable
    total = weight.sum()
    if total == 0:
        reason = "; ".join(skipped) or (
            f"none of the {n_cfg} strata of {adjust} holds a row")
        raise EmptyStratumError(f"{edge}: no usable strata: {reason}")
    return float(np.sum(diffs * weight) / total)


def edge_records(graph: CausalGraph, ace_of, cmi_of) -> list[dict]:
    """One record per edge, in declaration order, of ``ace_of(cause,
    effect)``, its ``ace_per_level`` and ``cmi_of(cause, effect,
    conditioning)``, conditioning on the effect's other parents."""
    records = []
    for cause, effect in graph.edges:
        others = [p for p in graph.parents(effect) if p != cause]
        value = ace_of(cause, effect)
        records.append({
            "cause": cause,
            "effect": effect,
            "ace": value,
            "ace_normalized": ace_per_level(graph, cause, value),
            "cmi": cmi_of(cause, effect, others),
            "conditioning": others,
        })
    return records


def edge_report(graph: CausalGraph, data: DiscreteDataset,
                alpha: float = 1.0, *, on_empty: str = "error") -> list[dict]:
    """``edge_records`` of backdoor ACE and CMI from data.

    An effect's continuous column of the same name, when present, is its
    ACE outcome (per-utterance error rates), else its ordinal codes.
    The rows are read once, into N over the graph's nodes and S per
    effect; each ACE reads the (parents(cause), cause) marginals of N
    and S, each CMI the (cause, effect, others) marginal of N.
    """
    _check_categories(graph, data, graph.nodes)
    effects = list(dict.fromkeys(effect for _, effect in graph.edges))
    counts, moments = count_tensors(data, graph.nodes, effects)
    summed: dict[frozenset, np.ndarray] = {}

    def counts_over(keep):
        # every edge of a cause, and every edge into an effect, reads
        # the same marginal of N
        key = frozenset(keep)
        if key not in summed:
            summed[key] = marginal(graph, counts, key)
        return _axes_as(graph, summed[key], keep)

    def ace_of(cause, effect):
        adjust = graph.parents(cause)
        family = (*adjust, cause)
        return _ace_from_counts(
            counts_over(family),
            _axes_as(graph, marginal(graph, moments[effect], family), family),
            cause, effect, adjust, _arms(graph, cause), on_empty)

    return edge_records(graph, ace_of, lambda cause, effect, others:
                        _cmi_from_counts(counts_over((cause, effect, *others)),
                                         alpha))


def group_by_effect(records: Iterable[dict]) -> dict[str, list[dict]]:
    """Edge records keyed by effect node (tabular report layout)."""
    out: dict[str, list[dict]] = {}
    for record in records:
        out.setdefault(record["effect"], []).append(record)
    return out
