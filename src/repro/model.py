"""The analytic model: LogGP derived in closed form from the calibration.

The paper reasons in LogP terms (its reference [9]).  Here ``L``, the
overheads, ``g``, ``G`` and a relay's per-hop cost are *derived* from
the parameter classes the simulator runs on, stage by stage along a
small VIA message's path, so the paper's anchors (RTT/2, host overhead,
per-hop latency, sustained link rate) come out of the model, not in.
The section 5.2 collective predictions use it; :func:`measure_via_loggp`
fits the same LogGP from the DES, the check that the simulator is as
decomposable as its closed form says.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from statistics import linear_regression
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.hw.link import padded_bytes
from repro.hw.node import MEMBUS_SETUP, PCIX_RATE
from repro.hw.params import GigEParams, HostParams, MyrinetParams, ViaParams
from repro.topology.torus import Torus

if TYPE_CHECKING:
    from repro.core.message import CoreParams


@dataclass(frozen=True)
class LogGP:
    """LogGP (microseconds; ``G`` in us/byte) plus a relay's hop cost."""

    L: float          # latency
    o_send: float     # send overhead
    o_recv: float     # receive overhead
    g: float          # per-message gap
    G: float          # per-byte gap
    hop: float = 0.0  # each relay beyond the first link

    @property
    def o(self) -> float:
        return self.o_send + self.o_recv

    def one_way(self, nbytes: float, hops: int = 1) -> float:
        """Predicted one-way time of ``nbytes`` across ``hops`` links."""
        return (self.o_send + self.L + self.G * nbytes + self.o_recv
                + (hops - 1) * self.hop)

    def bandwidth(self, nbytes: float) -> float:
        """Predicted sustained bandwidth (MB/s) at ``nbytes`` messages."""
        return nbytes / (self.g + self.G * nbytes)


def mesh_loggp(host: Optional[HostParams] = None,
               gige: Optional[GigEParams] = None,
               via: Optional[ViaParams] = None,
               core: Optional["CoreParams"] = None) -> LogGP:
    """LogGP of the GigE mesh in closed form: the VIA layer's, or with
    ``core`` the MPI/QMP layer's (envelope header, bounce and unpack
    copy setups, matching)."""
    host = host or HostParams()
    gige = gige or GigEParams()
    via = via or ViaParams()
    # A small message is one minimum frame: DMA, NIC processing and the
    # wire out; NIC processing, DMA, coalescing and the interrupt in.
    frame = padded_bytes(0, via.header_bytes) + gige.frame_overhead
    dma = MEMBUS_SETUP + frame / min(PCIX_RATE, host.membus_rate)
    serialize = frame / gige.wire_rate
    nic_tx = dma + gige.tx_proc + serialize + gige.propagation
    nic_rx = (gige.rx_proc + dma + gige.coalesce_delay
              + host.interrupt_cost + host.interrupt_per_frame)
    receive_copy = MEMBUS_SETUP if via.recv_copy else 0.0
    G = ((gige.mtu + gige.frame_overhead) / gige.wire_rate
         + gige.tx_proc) / (gige.mtu - via.header_bytes)
    model = LogGP(L=nic_tx + nic_rx + via.rx_demux_cost + receive_copy,
                  o_send=via.send_overhead, o_recv=via.recv_overhead,
                  g=gige.tx_proc + serialize, G=G,
                  hop=nic_rx + via.switch_forward_cost + nic_tx)
    if core is None:
        return model
    from repro.core.message import Envelope

    return replace(model, L=model.L + Envelope.HEADER_BYTES * G,
                   o_send=model.o_send + MEMBUS_SETUP,
                   o_recv=model.o_recv + core.match_cost + MEMBUS_SETUP)


def myrinet_loggp(params: Optional[MyrinetParams] = None) -> LogGP:
    """LogGP of GM on LaNai9 through the Clos switch: the host overhead
    split between the two ends; a hop is one more switch element."""
    params = params or MyrinetParams()
    half = params.host_overhead / 2
    return LogGP(L=params.latency, o_send=half, o_recv=half, g=half,
                 G=1.0 / params.bandwidth, hop=params.per_switch_hop)


# -- the DES check -------------------------------------------------------------

def measure_via_loggp(small: int = 4,
                      large_sizes: Sequence[int] = (262144, 1048576),
                      ) -> LogGP:
    """Fit LogGP to the simulated M-VIA stack: ``L`` is the small one-way
    time minus the calibrated overheads, ``hop`` what one relay adds,
    ``G`` the slope of simultaneous large-transfer time against size;
    their intercept ``g`` is a transfer's start-up, not the gap itself."""
    from repro.bench import microbench as mb

    params = ViaParams()
    one_way = mb.via_latency(small)
    times = [nbytes / mb.via_simultaneous_bandwidth(nbytes)
             for nbytes in large_sizes]
    G, intercept = linear_regression(large_sizes, times)
    return LogGP(L=one_way - params.send_overhead - params.recv_overhead,
                 o_send=params.send_overhead, o_recv=params.recv_overhead,
                 g=max(intercept, 0.0), G=G,
                 hop=mb.via_latency(small, hops=2) - one_way)


def validate_model(model: LogGP,
                   sizes: Sequence[int] = (4, 256, 1024, 4096),
                   ) -> Dict[int, Tuple[float, float]]:
    """``{size: (measured, predicted)}`` VIA one-way times, eager sizes."""
    from repro.bench import microbench as mb

    return {nbytes: (mb.via_latency(nbytes), model.one_way(nbytes))
            for nbytes in sizes}


def prediction_error(model: LogGP,
                     sizes: Sequence[int] = (4, 256, 1024, 4096),
                     ) -> float:
    """Worst relative prediction error over ``sizes``."""
    return max(abs(measured - predicted) / measured
               for measured, predicted
               in validate_model(model, sizes).values())


# -- collectives (paper section 5.2) ------------------------------------------
# Broadcast takes ceil(x/2) + ceil(y/2) + ceil(z/2) dimension-order steps
# ("about 20 us per step"): one MPI one-way time plus one send overhead,
# since a relay sends both ways along the step's dimension and the second
# send waits for the first.  Global combining is twice that; OPT scatter
# takes max(T1, T2) store-and-forward steps.

@dataclass(frozen=True)
class CollectivePrediction:
    """Predicted steps and time for one collective invocation."""

    steps: int
    time_us: float


@lru_cache(maxsize=None)
def mpi_loggp() -> LogGP:
    """The calibrated mesh's LogGP at the MPI layer."""
    from repro.core.message import CoreParams

    return mesh_loggp(core=CoreParams())


def broadcast_prediction(torus: Torus, nbytes: float = 4.0,
                         root: int = 0) -> CollectivePrediction:
    """Dimension-order broadcast: steps x the tree step's time."""
    from repro.collectives.tree import tree_depth

    model = mpi_loggp()
    steps = tree_depth(torus, root)
    return CollectivePrediction(
        steps, steps * (model.one_way(nbytes) + model.o_send))


def reduce_prediction(torus: Torus, nbytes: float = 4.0,
                      root: int = 0) -> CollectivePrediction:
    """Reduction: the reverse tree, same step count."""
    return broadcast_prediction(torus, nbytes, root)


def global_combine_prediction(torus: Torus, nbytes: float = 4.0,
                              ) -> CollectivePrediction:
    """Global combining = reduce + broadcast."""
    single = broadcast_prediction(torus, nbytes)
    return CollectivePrediction(2 * single.steps, 2 * single.time_us)


def barrier_prediction(torus: Torus) -> CollectivePrediction:
    """Barrier = global combine with a null reduction."""
    return global_combine_prediction(torus, nbytes=0.0)


def scatter_opt_prediction(torus: Torus, nbytes: float = 64.0,
                           root: int = 0) -> CollectivePrediction:
    """OPT scatter: each step paced by the slower of a relay hop and the
    message's serialization, after one end-to-end time."""
    from repro.collectives.schedule import opt_bound

    model = mpi_loggp()
    steps = opt_bound(torus, root)
    per_step = max(model.hop, nbytes * model.G)
    return CollectivePrediction(steps,
                                model.one_way(nbytes) + steps * per_step)


def validate_against(torus: Torus, measured_broadcast_us: float,
                     measured_combine_us: float, nbytes: float = 4.0,
                     tolerance: float = 0.35) -> bool:
    """Do measured broadcast and combine times both sit within
    ``tolerance`` (relative) of the step model?"""
    if measured_broadcast_us <= 0 or measured_combine_us <= 0:
        raise TopologyError("measured times must be positive")
    bcast = broadcast_prediction(torus, nbytes).time_us
    combine = global_combine_prediction(torus, nbytes).time_us
    return (abs(measured_broadcast_us - bcast) / bcast <= tolerance
            and abs(measured_combine_us - combine) / combine <= tolerance)
