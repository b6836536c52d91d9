"""The toolkit's one exception type.

The CLI maps it onto its exit-code contract: a refused request or a
precondition failure (bad parameters, under-resolved scales, violated
margins) exits with 3, anything unexpected with 1.  The message carries
what the caller needs: the key path, the scale, the offending nodes.
"""


class PreconditionError(Exception):
    """An operation was called outside its admissible parameter range."""
