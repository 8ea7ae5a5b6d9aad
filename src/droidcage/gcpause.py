"""Pausing the cyclic garbage collector around a bulk decode or engine run.

CPython's cyclic collector runs whenever allocations outnumber
deallocations by a threshold, and a full (oldest generation) collection
traverses every tracked object in the process. Decoding a large outside
document (an app model, a capture log) allocates hundreds of thousands of
long-lived containers, so it sets off full collections that traverse the
whole growing result. An engine run (the monkey, the explorer, the oracle)
allocates a step result and often a device per event, and sets off young
collections that find nothing to free.
"""

from __future__ import annotations

import gc


class gc_paused:
    """Context manager: run the body with the cyclic collector disabled.

    Safe for the decoders that use it (``app_model.load_app_model`` and
    ``model_from_dict``, ``netguard.parse_capture_log``) and for the engine
    loops (``monkey.run_monkey``, ``explorer.explore``,
    ``app_model.reachable_blocks``): what they build is acyclic, so
    reference counting frees all they drop and a collection during the run
    could only traverse; ``tests/test_gcpause.py`` checks that running them
    and then dropping their results leaves nothing for ``gc.collect()``.

    The pause is process-wide, since the collector's switch is, and lasts
    one decode or one engine run. On exit, also when the body raises,
    collection is enabled again only if it was enabled on entry, so pauses
    nest and a caller who turned collection off keeps it off.

    Exiting allocates nothing, so the collection the pause defers runs at
    the caller's next allocation, after the decoder's own temporaries (the
    raw JSON document, say) are freed.
    """

    __slots__ = ("_enabled",)

    def __enter__(self) -> None:
        self._enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._enabled:
            gc.enable()
