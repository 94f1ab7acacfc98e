"""Digital scope model (HP54645D-like) capturing logic-level streams.

The prototype acquired the digitizer's output with a mixed-signal scope;
the only property that matters is the finite record length, which this
model enforces.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.signals.waveform import Waveform


class LogicScope:
    """Captures a bitstream with a bounded record length.

    Parameters
    ----------
    max_record_samples:
        Record-length limit of the instrument (1e6 in the paper's setup).
    """

    def __init__(self, max_record_samples: int = 1_000_000):
        if max_record_samples < 1:
            raise ConfigurationError(
                f"record length must be >= 1, got {max_record_samples}"
            )
        self.max_record_samples = int(max_record_samples)
        self.last_truncated: bool = False

    def capture(self, stream: Waveform) -> Waveform:
        """Capture a stream, truncating to the record-length limit.

        Sets :attr:`last_truncated` so callers can tell whether samples
        were lost.
        """
        if stream.n_samples <= self.max_record_samples:
            self.last_truncated = False
            return stream
        self.last_truncated = True
        return stream.slice(0, self.max_record_samples)
