"""Exception types raised by the library.

Every failure mode has its own class so callers can react to the exact
condition; positional details (row, column, stream position) are kept as
attributes in addition to the message.
"""


class QGError(Exception):
    """Base class for all qgcipher errors."""


# --- Latin-square validation ---------------------------------------------

class NotSquare(QGError):
    pass


class InvalidOrder(QGError):
    pass


class EntryOutOfRange(QGError):
    def __init__(self, row, col):
        super().__init__(f"entry at row {row}, column {col} out of range")
        self.row = row
        self.col = col


class DuplicateInRow(QGError):
    def __init__(self, row):
        super().__init__(f"row {row} is not a permutation")
        self.row = row


class DuplicateInColumn(QGError):
    def __init__(self, col):
        super().__init__(f"column {col} is not a permutation")
        self.col = col


class SymbolOutOfRange(QGError):
    def __init__(self, message="symbol out of range", position=None):
        super().__init__(message)
        self.position = position


class SizeMismatch(QGError):
    pass


# --- table provider and profile ------------------------------------------

class IndexOutOfRange(QGError):
    pass


class ProfileInvalid(QGError):
    pass


# --- keying ----------------------------------------------------------------

class FrameInvalid(QGError):
    pass


# --- codec -----------------------------------------------------------------

class LeaderOutOfRange(QGError):
    pass


class PlaintextSymbolTooLarge(QGError):
    def __init__(self, position, symbol, limit):
        super().__init__(
            f"plaintext symbol {symbol} at position {position} exceeds {limit}")
        self.position = position
        self.symbol = symbol
        self.limit = limit


class CiphertextSymbolTooLarge(QGError):
    def __init__(self, position, symbol, limit):
        super().__init__(
            f"ciphertext symbol {symbol} at position {position} exceeds {limit}")
        self.position = position
        self.symbol = symbol
        self.limit = limit


class ForgedCiphertext(QGError):
    """A ciphertext that no plaintext encrypts to under the key: a symbol
    entering a level lies above that level's order."""

    def __init__(self, position, symbol, level, limit):
        super().__init__(
            f"ciphertext is not valid under this key: symbol {symbol} at "
            f"position {position} entering level {level} exceeds its order "
            f"{limit}")
        self.position = position
        self.symbol = symbol
        self.level = level
        self.order = limit


class KeyMismatch(QGError):
    pass


class UnmappableCharacter(QGError):
    def __init__(self, position, char):
        super().__init__(f"character {char!r} at position {position} "
                         "is not in the alphabet")
        self.position = position
        self.char = char


class ContainerError(QGError):
    """Malformed ciphertext container (bad magic, version, or truncation)."""


# --- analysis ----------------------------------------------------------------

class EmptyStream(QGError):
    pass


class UnknownCase(QGError):
    pass


# --- simulation ---------------------------------------------------------------

class TooFewNodes(QGError):
    pass


class NegativeTime(QGError):
    pass


class TimeNotInteger(QGError):
    pass


class UnknownNode(QGError):
    pass


# --- legacy key parsing --------------------------------------------------------

class LegacyKeyError(QGError):
    pass


class TooFewEntries(LegacyKeyError):
    pass


class NotANumber(LegacyKeyError):
    pass


class OrderViolation(LegacyKeyError):
    pass
