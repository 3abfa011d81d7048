"""The `classify` runner of the CLI: a Gram matrix file, read and classified.

Gram matrix file schema: {"n": <int>, "entries": [[<int>, ...], ...]}
with integers parsed exactly, up to Python's default limit of 4300
digits per integer. At most MAX_GRAM_CHARS (2**24) characters are
read; a longer file, or one that cannot be read or parsed, is refused as
InvalidInput. Opening the file never waits (O_NONBLOCK, where the
platform has it): a FIFO that no writer opens within GRAM_WAIT_S (3)
seconds is refused as InvalidInput. A writer that opens the FIFO and
never writes still blocks the read, as it would block `cat`. Both caps
live here, in the module that reads them.
"""

import os

from .errors import InvalidInputError, text_repr

# about 20 times the largest compact Gram file whose elimination MAX_ELIMINATION_WORK admits
MAX_GRAM_CHARS = 2**24
# seconds a Gram file waits for a writer to open it (a FIFO) before it is refused
GRAM_WAIT_S = 3


def _load_gram(path: str):
    import json
    from .lattice import GramMatrix
    try:
        text = _read_text(path)
        if len(text) > MAX_GRAM_CHARS:
            raise ValueError(f"file is longer than the cap of {MAX_GRAM_CHARS} characters")
        return GramMatrix.from_dict(json.loads(text))
    except OSError as exc:
        raise InvalidInputError(f"cannot read {text_repr(path)}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        # a file over the cap, malformed JSON, bad UTF-8, an integer over the digit
        # limit, nesting deeper than the parser's recursion limit, or a bad Gram object
        raise InvalidInputError(f"{text_repr(path)}: {exc}") from exc


def _read_text(path: str) -> str:
    """At most MAX_GRAM_CHARS + 1 characters of path, read in text mode as
    open(path) reads them, so the cap counts characters. The open does not
    wait for a FIFO's writer; the read waits up to GRAM_WAIT_S for one."""
    nonblock = getattr(os, "O_NONBLOCK", 0)
    # a directory opens too, and then open() refuses it by its path
    with open(path, opener=lambda name, flags: os.open(name, flags | nonblock)) as fh:
        head = b""
        if nonblock:
            import select
            poll = select.poll()
            poll.register(fh, select.POLLIN)
            if not poll.poll(GRAM_WAIT_S * 1000):
                try:
                    head = os.read(fh.fileno(), 1)  # data here: a writer came at the last instant
                except BlockingIOError:  # a writer holds the pipe open and has not written yet
                    pass
                else:
                    if not head:  # end of file: no writer holds the pipe open
                        raise ValueError(f"no writer opened it within {GRAM_WAIT_S} s")
            os.set_blocking(fh.fileno(), True)
        return head.decode(fh.encoding) + fh.read(MAX_GRAM_CHARS + 1 - len(head))  # /dev/zero ends here


def run_classify(args) -> tuple[dict, list[str]]:
    from .classification import ClassificationMode, classify_form, describe
    from .lattice import invariants
    m = _load_gram(args.gram)
    mode = (ClassificationMode.SMOOTH_FOUR_MANIFOLD if args.smooth
            else ClassificationMode.ABSTRACT_LATTICE)
    inv = invariants(m)
    cls = classify_form(inv, mode)
    text = [
        f"rank {inv.rank}  b+ {inv.b_plus}  b- {inv.b_minus}  "
        f"signature {inv.signature}  parity {inv.parity.value}  "
        f"determinant {inv.determinant}",
        f"class: {describe(cls)}",
    ]
    return {"invariants": inv, "class": cls}, text
