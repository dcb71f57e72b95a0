"""Per-layer host-time accounting, applied from outside the simulator.

``LayerTracer.installed()`` patches, for the duration of a ``with`` block, the
kernel's registration points (handlers, link-change listeners, scheduled
callbacks) and a fixed list of public layer methods with wrappers that time
each call. Nothing in ``src/`` is edited and nothing is patched outside the
block, so the timed rounds of the benchmark run the program untouched.

Every wrapped call is a span keyed by ``(layer, name)``. The layer is the
module that defines the callable (``mcastsim.zone`` -> ``zone``); the name is
``handler:<packet kind>``, ``listener:<function>`` or the function name. A
span's self time is its duration minus the time of the spans it encloses, so
the self times of all spans inside the event loop plus the loop's own
bookkeeping add up to the loop's host time.
"""

import contextlib
import time
from collections import Counter, defaultdict

from mcastsim.contacts import ContactManager
from mcastsim.kernel import Kernel
from mcastsim.mobility import MobilityManager
from mcastsim.multicast import MulticastService
from mcastsim.rendezvous import RendezvousManager
from mcastsim.zone import ZoneRouting

LAYERS = ("kernel", "mobility", "zone", "contacts", "rendezvous", "multicast", "sim")

# Public layer methods timed as spans of their own.
METHODS = (
    (MobilityManager, ("step", "stability")),
    (ZoneRouting, ("update_zone", "bordercast_query")),
    (ContactManager, ("detect_drifting", "contact_query", "maintain_contact")),
    (RendezvousManager, ("lar_send", "geocast", "sds_promotion_decide",
                         "register_session")),
    (MulticastService, ("forward_data", "send_data", "receiver_join",
                        "receiver_leave", "local_recovery", "handoff_on_move",
                        "bootstrap_discover_sessions")),
)


def layer_of(fn):
    module = getattr(fn, "__module__", None) or ""
    return module.rsplit(".", 1)[-1] if module.startswith("mcastsim") else "other"


class LayerTracer:
    """Span accounting for one traced round; see the module docstring."""

    def __init__(self):
        self.self_s = defaultdict(float)   # (layer, name) -> self seconds
        self.calls = Counter()             # (layer, name) -> calls
        self.transmissions = Counter()     # packet kind -> Kernel.transmit calls
        self.register_sends = 0            # lar_send calls carrying session_register
        self.broadcast_deliveries = 0
        self.unicast_deliveries = 0
        self.events = 0
        self.cancelled = 0
        self.queue_peak = 0
        self._live = set()                 # handles scheduled and not yet run
        self._stack = [0.0]                # child time of each open span

    def reset(self):
        """Forget what was counted so far (used after construction)."""
        self.self_s.clear()
        self.calls.clear()
        self.transmissions.clear()
        self.register_sends = 0
        self.broadcast_deliveries = self.unicast_deliveries = 0
        self.events = self.cancelled = 0
        self.queue_peak = len(self._live)

    def total_self_s(self):
        return sum(self.self_s.values())

    def layer_self_s(self, layer):
        return sum(v for (lay, _), v in self.self_s.items() if lay == layer)

    def self_of(self, layer, *names):
        return sum(self.self_s[(layer, n)] for n in names)

    def calls_of(self, layer, *names):
        return sum(self.calls[(layer, n)] for n in names)

    # -- spans ----------------------------------------------------------------

    def _timed(self, key, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.self_s[key] += dt - stack.pop()
            self.calls[key] += 1
            stack[-1] += dt

    def wrap(self, key, fn):
        def span(*args, **kwargs):
            return self._timed(key, fn, args, kwargs)
        return span

    def _handler(self, kind, fn):
        key = (layer_of(fn), "handler:" + kind)

        def handler(nid, pkt, rx_power, sender):
            if pkt.dst is None:
                self.broadcast_deliveries += 1
            else:
                self.unicast_deliveries += 1
            return self._timed(key, fn, (nid, pkt, rx_power, sender), {})
        return handler

    # -- patching -------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch the kernel and the layer classes; restore them on exit."""
        tracer = self
        saved = []

        def patch(cls, name, new):
            saved.append((cls, name, cls.__dict__[name]))
            setattr(cls, name, new)

        register_handler = Kernel.register_handler
        on_link_change = Kernel.on_link_change
        schedule_at = Kernel.schedule_at
        cancel = Kernel.cancel
        transmit = Kernel.transmit

        def patched_register_handler(kernel, kind, fn):
            return register_handler(kernel, kind, tracer._handler(kind, fn))

        def patched_on_link_change(kernel, fn):
            key = (layer_of(fn), "listener:" + fn.__name__)
            return on_link_change(kernel, tracer.wrap(key, fn))

        def patched_schedule_at(kernel, t_us, fn, *args):
            key = (layer_of(fn), getattr(fn, "__name__", "callback"))
            box = []

            def event(*a):
                tracer._live.discard(box[0])
                tracer.events += 1
                return tracer._timed(key, fn, a, {})
            handle = schedule_at(kernel, t_us, event, *args)
            box.append(handle)
            tracer._live.add(handle)
            if len(tracer._live) > tracer.queue_peak:
                tracer.queue_peak = len(tracer._live)
            return handle

        def patched_cancel(kernel, handle):
            if handle in tracer._live:
                tracer._live.discard(handle)
                tracer.cancelled += 1
            return cancel(kernel, handle)

        transmit_key = ("kernel", "transmit")

        def patched_transmit(kernel, sender, packet):
            tracer.transmissions[packet.kind] += 1
            return tracer._timed(transmit_key, transmit, (kernel, sender, packet), {})

        try:
            patch(Kernel, "register_handler", patched_register_handler)
            patch(Kernel, "on_link_change", patched_on_link_change)
            patch(Kernel, "schedule_at", patched_schedule_at)
            patch(Kernel, "cancel", patched_cancel)
            patch(Kernel, "transmit", patched_transmit)
            patch(Kernel, "rebuild_links",
                  self.wrap(("kernel", "rebuild_links"), Kernel.rebuild_links))
            for cls, names in METHODS:
                for name in names:
                    fn = cls.__dict__[name]
                    patch(cls, name, self.wrap((layer_of(fn), name), fn))
            lar_send = RendezvousManager.lar_send

            def counting_lar_send(rr, origin, prefix, inner_kind, *args, **kwargs):
                if inner_kind == "session_register":
                    tracer.register_sends += 1
                return lar_send(rr, origin, prefix, inner_kind, *args, **kwargs)
            patch(RendezvousManager, "lar_send", counting_lar_send)
            yield self
        finally:
            for cls, name, original in reversed(saved):
                setattr(cls, name, original)
