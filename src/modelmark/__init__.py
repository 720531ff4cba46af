"""modelmark: copyright protection and leak tracing for classifier models.

Passive path: cut trigger frames from a private video, watermark each user's
model copy through an additional output class, trace leaks with threshold
tests, and anchor image fingerprints in a hash-chained ledger.

Active path: gate inference behind a per-user key-image detector and a
credential validator, serve it over a small TCP gateway, and trace leaked
deployments by probing with each user's key.
"""

# cli is left out so that `python -m modelmark.cli` does not find it already
# imported; `from modelmark import cli` still loads it.
from . import acpt, gateway, ledger, media, pcpt, phash, synthdata, tinynn
from .errors import ModelmarkError

__all__ = [
    "ModelmarkError",
    "acpt",
    "cli",
    "gateway",
    "ledger",
    "media",
    "pcpt",
    "phash",
    "synthdata",
    "tinynn",
]

__version__ = "0.1.0"
