"""The fast detailed-simulation engine.

This module holds the one optimized cycle loop; the reference loop in
:mod:`repro.simulator.processor` is its oracle.  It simulates exactly the
same machine — same phase order within a cycle (retire, issue, dispatch,
fetch), same structural limits, same miss-event handling — and is
asserted cycle-exact against the reference by
``tests/simulator/test_engine_equivalence.py`` and the differential fuzz
suite ``tests/simulator/test_engine_fuzz.py``.  What changes is purely
the algorithm:

* **Index-range structures.**  Dispatch and retirement are both in
  program order, so the ROB always holds the contiguous trace-index range
  ``[retired, dispatched)`` and the front-end pipeline holds
  ``[dispatched, fetched)``.  Both collapse into integer pointers: ROB
  occupancy, pipeline occupancy and the "instructions ahead of a long
  miss" instrumentation are all O(1) arithmetic instead of container
  scans.  The pipeline itself is a deque of *fetch-group* records
  ``(dispatch_ready_cycle, end_index)`` — one entry per fetch cycle, not
  per instruction — and a whole group whose dispatch cannot stall is
  dispatched with a single structural check.
* **Event-driven wake-up.**  The reference re-scans the whole issue
  window every cycle to find ready instructions.  Here each instruction
  is woken exactly once.  Instructions whose producers have all completed
  by dispatch go onto a plain next-cycle list (the common case; it merges
  into the ready list without sorting, because newly dispatched indices
  exceed everything already waiting).  Instructions blocked on an
  in-flight producer register themselves on that producer's *waiter
  list*; when the producer issues it walks its waiters, and the waiter
  whose last outstanding producer this was is scheduled in a calendar
  (dict of wake cycle → bucket, with a heap of pending wake cycles for
  the "when is the next wake?" query).  Due instructions merge into a
  sorted ready list that preserves the machine's oldest-first issue
  priority.  Work is proportional to instructions and *blocked*
  dependence edges, not cycles × window size.
* **Batched fetch.**  The trace positions where fetch can deviate from
  the conveyor belt (I-miss stalls, mispredicted branches) are
  precomputed with numpy; between two such events a whole fetch group is
  latched as one record with no per-instruction checks.
* **Event skipping.**  When a cycle performs no retire, issue, dispatch
  or fetch and changes no front-end state, the machine is quiescent and
  will stay quiescent until the next scheduled event (a completion, a
  pipeline-latch expiry, an I-miss refill, a branch resolution).  The
  engine jumps straight to that cycle, charging the skipped cycles to the
  instrumentation counters in bulk — long-miss drains cost O(1) instead
  of O(ΔD) Python iterations.
* **Segment feed.**  The per-instruction tables arrive as *segments*
  (:func:`make_segment`): :func:`run_fast` passes one that covers the
  whole trace and is used without a copy, a streamed run one per chunk.
  When fetch needs instructions past the loaded end, the engine drops
  the retired prefix from every table and shifts every live index down
  by that amount.  The live range is bounded by ``rob_size +
  pipeline_depth × width``, so a streamed run holds O(chunk) state; the
  running ``origin`` is added back only in the telemetry marks.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heappop, heappush
from typing import Iterator, NamedTuple

import numpy as np

from repro.config import ProcessorConfig
from repro.frontend.events import EventAnnotations
from repro.simulator.results import Instrumentation, SimResult
from repro.telemetry.accountant import (
    CLS_BASE,
    CLS_BRANCH,
    CLS_DCACHE_LONG,
    CLS_ICACHE_L1,
    CLS_ICACHE_L2,
    CLS_ROB_FULL,
    CLS_WINDOW_FULL,
)
from repro.trace.trace import Dependences, Trace

#: sentinel completion time for not-yet-issued instructions; any real
#: cycle count is far below this
_INF = 1 << 62


class Segment(NamedTuple):
    """A contiguous run of instructions in the form the engine reads.

    The per-instruction fields are plain lists (the engine indexes them
    once per instruction); dependences and ``events`` hold global trace
    indices.
    """

    dep1: list[int]
    dep2: list[int]
    latency: list[int]
    fetch_stall: list[int]
    mispredicted: list[bool]
    long_miss: list[bool]
    #: mispredicted or long-missing: the instructions issue must look at
    notable: list[bool]
    #: global indices where fetch must leave the conveyor fast path
    events: list[int]
    mispredictions: int
    icache_short: int
    icache_long: int
    dcache_long: int


def make_segment(
    deps: Dependences,
    static_latency: np.ndarray,
    annotations: EventAnnotations,
    base: int,
    memory_latency: int,
) -> Segment:
    """The segment of instructions ``[base, base + len(annotations))``.

    ``static_latency`` is the per-instruction functional-unit latency;
    the annotations' extra load-to-use latency is added here.  The
    dependence and annotation lists are the objects' cached list views,
    shared, not copied: the engine never writes to a segment.
    """
    ann = annotations
    fs = ann.fetch_stall
    events = np.flatnonzero((fs > 0) | ann.mispredicted) + base
    return Segment(
        dep1=deps.dep1_list,
        dep2=deps.dep2_list,
        latency=(static_latency + ann.load_extra).tolist(),
        fetch_stall=ann.fetch_stall_list,
        mispredicted=ann.mispredicted_list,
        long_miss=ann.long_miss_list,
        notable=np.logical_or(ann.mispredicted, ann.long_miss).tolist(),
        events=events.tolist(),
        mispredictions=int(ann.mispredicted.sum()),
        icache_short=int(((fs > 0) & (fs < memory_latency)).sum()),
        icache_long=int((fs >= memory_latency).sum()),
        dcache_long=int(ann.long_miss.sum()),
    )


def run_fast(
    trace: Trace,
    config: ProcessorConfig,
    annotations: EventAnnotations,
    instrument: bool = True,
    telemetry=None,
) -> SimResult:
    """Simulate ``trace`` with the event-driven fast path.

    Preconditions (the caller, :class:`DetailedSimulator`, checks them):
    the trace is non-empty and ``annotations`` matches its length.
    """
    segment = make_segment(
        trace.dependences(), trace.latencies(config.latencies),
        annotations, 0, config.hierarchy.memory_latency,
    )
    return run_segments(iter((segment,)), len(trace), config,
                        name=trace.name, instrument=instrument,
                        telemetry=telemetry)


def run_segments(
    segments: Iterator[Segment],
    length: int,
    config: ProcessorConfig,
    name: str = "trace",
    instrument: bool = True,
    telemetry=None,
) -> SimResult:
    """Simulate ``length`` instructions fed as consecutive segments.

    The caller guarantees the segments arrive in order and cover exactly
    ``length`` instructions.  The engine pulls the next segment only when
    fetch reaches the end of the loaded ones.

    ``telemetry`` is an optional :class:`repro.telemetry.Telemetry`
    session.  With one attached, every cycle — including the ones the
    quiescent-skip path jumps over, charged as constant-state spans — is
    classified into a stall class and fed to the interval timeline, with
    the identical priority order as the reference loop; with ``None``
    every collection site is skipped and the engine is unchanged.
    """
    total = int(length)
    cfg = config
    width = cfg.width
    depth = cfg.pipeline_depth
    win_size = cfg.window_size
    rob_size = cfg.rob_size
    pipe_capacity = depth * width

    # Every index below is local: global trace index minus ``origin``,
    # the number of retired instructions dropped from the tables so far.
    # ``n`` is the local end of the trace.
    origin = 0
    n = total

    seg = next(segments)
    dep1 = seg.dep1
    dep2 = seg.dep2
    latency = seg.latency
    fetch_stall = seg.fetch_stall
    mispredicted = seg.mispredicted
    long_miss = seg.long_miss
    notable = seg.notable
    loaded_end = len(latency)   #: the tables hold [0, loaded_end)
    #: fetch loads more segments once next_fetch passes this mark
    load_at = loaded_end - width if loaded_end < n else n
    misp_total = seg.mispredictions
    ic_short = seg.icache_short
    ic_long = seg.icache_long
    dc_long = seg.dcache_long

    #: loaded indices where fetch must leave the conveyor fast path,
    #: closed by the sentinel ``n``
    ev_list = seg.events + [n]
    ev_i = 0
    ev_next = ev_list[0]

    complete = [_INF] * loaded_end
    #: unissued-producer count, valid once dispatched
    pending = [0] * loaded_end
    #: max completion time over already-issued producers
    ready_max = [0] * loaded_end
    #: per-producer list of dispatched consumers blocked on it
    waiters: list[list[int] | None] = [None] * loaded_end

    cal: dict[int, list[int]] = {}  #: wake cycle -> instructions waking then
    cal_get = cal.get
    wt: list[int] = []              #: heap of pending wake cycles (distinct)
    ready: list[int] = []           #: issue-ready indices, kept sorted
    nxt: list[int] = []             #: dispatched this cycle, ready the next
    wake1: list[int] = []           #: freed by an issue, ready next cycle

    #: fetch groups (dispatch_ready_cycle, end_index); together the
    #: groups cover the pipeline range [next_dispatch, next_fetch)
    pipe: deque[tuple[int, int]] = deque()

    next_fetch = 0
    next_dispatch = 0      #: ROB is trace range [retired, next_dispatch)
    retired = 0
    window_count = 0       #: dispatched but not yet issued
    fetch_resume = 0
    stall_paid_for = -1
    waiting_branch = -1
    branch_resolve = -1
    cycle = 0

    hist = [0] * (width + 1)
    window_left: list[int] = []
    rob_ahead: list[int] = []
    stall_window = 0
    stall_rob = 0

    tele = telemetry
    notable_any = instrument or tele is not None
    mem_lat = cfg.hierarchy.memory_latency
    front_cause = CLS_BASE    #: sticky class of the last fetch break
    branch_wait_start = 0     #: cycle the pending mispredict stopped fetch
    dispatched_t = False
    stalled_window_t = stalled_rob_t = False

    while retired < n:
        progress = False
        if tele is not None:
            dispatched_t = False
            stalled_window_t = stalled_rob_t = False

        # ---- retire (in order, completed, up to width) ---------------
        if retired < next_dispatch and complete[retired] <= cycle:
            r0 = retired
            lim = retired + width
            if lim > next_dispatch:
                lim = next_dispatch
            retired += 1
            while retired < lim and complete[retired] <= cycle:
                retired += 1
            progress = True
            if tele is not None:
                tele.retire(cycle, retired - r0)

        # ---- issue (oldest-first, ready, up to width) -----------------
        if nxt:
            if ready:
                # every index in nxt was dispatched after everything
                # already waiting, so appending keeps the list sorted
                ready += nxt
                nxt = []
            else:
                ready, nxt = nxt, ready
        if wake1:
            if ready:
                for c in wake1:
                    insort(ready, c)
                wake1 = []
            else:
                wake1.sort()
                ready, wake1 = wake1, ready
        if wt and wt[0] <= cycle:
            bucket = cal.pop(heappop(wt))
            while wt and wt[0] <= cycle:
                bucket += cal.pop(heappop(wt))
            if ready:
                ready += bucket
                ready.sort()
            else:
                bucket.sort()
                ready = bucket
        mispredict_issued = False
        if ready:
            cycle_1 = cycle + 1
            issued_now = len(ready)
            if issued_now > width:
                issued_now = width
            for i in range(issued_now):
                k = ready[i]
                done = cycle + latency[k]
                complete[k] = done
                if k == waiting_branch:
                    branch_resolve = done
                if notable[k] and notable_any:
                    if mispredicted[k]:
                        mispredict_issued = True
                        if tele is not None:
                            tele.mark_mispredict(cycle, k + origin)
                    if long_miss[k]:
                        if instrument:
                            # the ROB holds the contiguous range
                            # [retired, next_dispatch), so the entries
                            # ahead of k are exactly k - retired
                            rob_ahead.append(k - retired)
                        if tele is not None:
                            tele.mark_long_miss(cycle, k + origin, latency[k])
                w = waiters[k]
                if w is not None:
                    waiters[k] = None
                    for c in w:
                        if done > ready_max[c]:
                            ready_max[c] = done
                        p = pending[c]
                        if p == 1:
                            pending[c] = 0
                            t = ready_max[c]
                            if t == cycle_1:
                                # the common latency-1 wake skips the
                                # calendar machinery entirely
                                wake1.append(c)
                            else:
                                bkt = cal_get(t)
                                if bkt is None:
                                    cal[t] = [c]
                                    heappush(wt, t)
                                else:
                                    bkt.append(c)
                        else:
                            pending[c] = p - 1
            del ready[:issued_now]
            window_count -= issued_now
            progress = True
        else:
            issued_now = 0
        if instrument:
            hist[issued_now] += 1
            if mispredict_issued:
                window_left.append(window_count)

        # ---- dispatch (in order, up to width, both structures) --------
        if pipe and pipe[0][0] <= cycle:
            d0 = next_dispatch
            cycle_1 = cycle + 1
            gend = pipe[0][1]
            cnt = gend - d0
            if (
                cnt <= width
                and window_count + cnt <= win_size
                and gend - retired <= rob_size
                and (cnt == width or len(pipe) < 2 or pipe[1][0] > cycle)
            ):
                # whole-group fast path: the group fits the dispatch
                # width and both structures, and no younger group could
                # dispatch this cycle — no per-instruction checks needed
                pipe.popleft()
                next_dispatch = gend
                window_count += cnt
                dispatched_t = True
                for k in range(d0, gend):
                    pend = 0
                    r = 0
                    d = dep1[k]
                    # deps already retired have completed by now and
                    # cannot bound the issue time — skip them outright
                    if d >= retired:
                        cd = complete[d]
                        if cd == _INF:
                            pend = 1
                            w = waiters[d]
                            if w is None:
                                waiters[d] = [k]
                            else:
                                w.append(k)
                        elif cd > r:
                            r = cd
                    d = dep2[k]
                    if d >= retired:
                        cd = complete[d]
                        if cd == _INF:
                            pend += 1
                            w = waiters[d]
                            if w is None:
                                waiters[d] = [k]
                            else:
                                w.append(k)
                        elif cd > r:
                            r = cd
                    if pend:
                        pending[k] = pend
                        ready_max[k] = r
                    elif r <= cycle_1:
                        # a producer completing by cycle+1 cannot delay the
                        # consumer: its earliest issue is the cycle after
                        # dispatch anyway
                        nxt.append(k)
                    else:
                        bkt = cal_get(r)
                        if bkt is None:
                            cal[r] = [k]
                            heappush(wt, r)
                        else:
                            bkt.append(k)
                progress = True
            else:
                lim = d0 + width
                stalled = False
                while pipe:
                    t, gend = pipe[0]
                    if t > cycle or next_dispatch >= lim:
                        break
                    e = gend if gend < lim else lim
                    while next_dispatch < e:
                        if window_count >= win_size:
                            stalled_window_t = True
                            if instrument:
                                stall_window += 1
                            stalled = True
                            break
                        if next_dispatch - retired >= rob_size:
                            stalled_rob_t = True
                            if instrument:
                                stall_rob += 1
                            stalled = True
                            break
                        k = next_dispatch
                        next_dispatch += 1
                        window_count += 1
                        pend = 0
                        r = 0
                        d = dep1[k]
                        if d >= retired:
                            cd = complete[d]
                            if cd == _INF:
                                pend = 1
                                w = waiters[d]
                                if w is None:
                                    waiters[d] = [k]
                                else:
                                    w.append(k)
                            elif cd > r:
                                r = cd
                        d = dep2[k]
                        if d >= retired:
                            cd = complete[d]
                            if cd == _INF:
                                pend += 1
                                w = waiters[d]
                                if w is None:
                                    waiters[d] = [k]
                                else:
                                    w.append(k)
                            elif cd > r:
                                r = cd
                        if pend:
                            pending[k] = pend
                            ready_max[k] = r
                        elif r <= cycle_1:
                            nxt.append(k)
                        else:
                            bkt = cal_get(r)
                            if bkt is None:
                                cal[r] = [k]
                                heappush(wt, r)
                            else:
                                bkt.append(k)
                    if stalled:
                        break
                    if next_dispatch >= gend:
                        pipe.popleft()
                    else:
                        break
                if next_dispatch != d0:
                    progress = True
                    dispatched_t = True

        if tele is not None:
            # stall attribution — same priority order as the reference
            # loop (see repro.telemetry.accountant)
            if dispatched_t:
                front_cause = CLS_BASE
                cls = CLS_BASE
            elif stalled_window_t:
                cls = CLS_WINDOW_FULL
            elif stalled_rob_t:
                cls = (
                    CLS_DCACHE_LONG
                    if long_miss[retired] and complete[retired] > cycle
                    else CLS_ROB_FULL
                )
            elif waiting_branch >= 0:
                cls = CLS_BRANCH
            elif (
                retired < next_dispatch
                and long_miss[retired]
                and complete[retired] > cycle
            ):
                cls = CLS_DCACHE_LONG
            else:
                cls = front_cause
            tele.charge(cls, cycle)

        # ---- fetch (up to width, subject to stalls) --------------------
        if waiting_branch >= 0:
            if branch_resolve >= 0 and cycle >= branch_resolve:
                # misprediction resolved: redirect, refill next cycle
                if tele is not None:
                    tele.mark_branch_redirect(
                        cycle, waiting_branch + origin, branch_wait_start
                    )
                waiting_branch = -1
                branch_resolve = -1
                fetch_resume = cycle + 1
                progress = True
        elif cycle >= fetch_resume and next_fetch < n:
            if next_fetch > load_at:
                # ---- drop the retired prefix, load the next segments --
                # Instructions below ``retired`` are referenced by nothing
                # live: their waiter lists are empty, dispatch skips
                # retired producers, and the ROB, window, pipeline and
                # calendar hold younger indices only.  Slicing copies
                # every table, so a segment's own lists are never written.
                drop = retired
                origin += drop
                n -= drop
                retired = 0
                next_dispatch -= drop
                next_fetch -= drop
                loaded_end -= drop
                # a stale value stays below next_fetch and never matches
                # again; waiting_branch is -1 whenever fetch runs
                stall_paid_for -= drop
                dep1 = dep1[drop:]
                dep2 = dep2[drop:]
                latency = latency[drop:]
                fetch_stall = fetch_stall[drop:]
                mispredicted = mispredicted[drop:]
                long_miss = long_miss[drop:]
                notable = notable[drop:]
                complete = complete[drop:]
                pending = pending[drop:]
                ready_max = ready_max[drop:]
                waiters = waiters[drop:]
                if drop:
                    # only undispatched entries still read their deps
                    for k in range(next_dispatch, loaded_end):
                        dep1[k] -= drop
                        dep2[k] -= drop
                    for k in range(next_dispatch):
                        w = waiters[k]
                        if w is not None:
                            waiters[k] = [c - drop for c in w]
                    ready = [k - drop for k in ready]
                    nxt = [k - drop for k in nxt]
                    wake1 = [k - drop for k in wake1]
                    for t, bkt in cal.items():
                        cal[t] = [k - drop for k in bkt]
                    pipe = deque((t, e - drop) for t, e in pipe)
                ev_list = [e - drop for e in ev_list[ev_i:-1]]
                while loaded_end < n and next_fetch + width > loaded_end:
                    seg = next(segments)
                    dep1 += [d - origin for d in seg.dep1]
                    dep2 += [d - origin for d in seg.dep2]
                    ev_list += [e - origin for e in seg.events]
                    latency += seg.latency
                    fetch_stall += seg.fetch_stall
                    mispredicted += seg.mispredicted
                    long_miss += seg.long_miss
                    notable += seg.notable
                    size = len(seg.latency)
                    complete += [_INF] * size
                    pending += [0] * size
                    ready_max += [0] * size
                    waiters += [None] * size
                    loaded_end += size
                    misp_total += seg.mispredictions
                    ic_short += seg.icache_short
                    ic_long += seg.icache_long
                    dc_long += seg.dcache_long
                load_at = loaded_end - width if loaded_end < n else n
                ev_list.append(n)
                ev_i = 0
                ev_next = ev_list[0]
            space = pipe_capacity - (next_fetch - next_dispatch)
            if space > 0:
                m = width if width < space else space
                end = next_fetch + m
                if end > n:
                    end = n
                if end <= ev_next:
                    # conveyor path: no stall or mispredict in the group
                    pipe.append((cycle + depth, end))
                    next_fetch = end
                    progress = True
                else:
                    f0 = next_fetch
                    while next_fetch < end:
                        f = next_fetch
                        stall = fetch_stall[f]
                        if stall and stall_paid_for != f:
                            # the line misses: resume after the fill
                            stall_paid_for = f
                            fetch_resume = cycle + stall
                            progress = True
                            if tele is not None:
                                long = stall >= mem_lat
                                front_cause = (
                                    CLS_ICACHE_L2 if long else CLS_ICACHE_L1
                                )
                                tele.mark_icache_stall(
                                    cycle, f + origin, stall, long
                                )
                            break
                        next_fetch += 1
                        if mispredicted[f]:
                            # stop fetching useful instructions
                            waiting_branch = f
                            branch_resolve = (
                                complete[f] if complete[f] != _INF else -1
                            )
                            if tele is not None:
                                front_cause = CLS_BRANCH
                                branch_wait_start = cycle
                            break
                    if next_fetch != f0:
                        pipe.append((cycle + depth, next_fetch))
                        progress = True
                    while ev_list[ev_i] < next_fetch:
                        ev_i += 1
                    ev_next = ev_list[ev_i]

        if tele is not None:
            tele.occupancy(cycle, 1, next_dispatch - retired, window_count)
        cycle += 1
        if progress or retired >= n:
            continue

        # ---- quiescent: jump to the next cycle anything can change ----
        t_next = _INF
        if retired < next_dispatch and complete[retired] < t_next:
            t_next = complete[retired]
        if wt and wt[0] < t_next:
            t_next = wt[0]
        if (
            pipe
            and window_count < win_size
            and next_dispatch - retired < rob_size
        ):
            t = pipe[0][0]
            if t < t_next:
                t_next = t
        if waiting_branch >= 0:
            if 0 <= branch_resolve < t_next:
                t_next = branch_resolve
        elif next_fetch < n and next_fetch - next_dispatch < pipe_capacity:
            if fetch_resume < t_next:
                t_next = fetch_resume
        if t_next == _INF:
            raise RuntimeError(
                "simulator deadlock: no schedulable event with "
                f"{n - retired} instructions outstanding"
            )
        skip = t_next - cycle
        if skip > 0:
            if instrument:
                hist[0] += skip
                # the reference charges a dispatch-stall counter in every
                # skipped cycle whose pipeline head is dispatch-ready
                if pipe:
                    head = pipe[0][0]
                    blocked = t_next - (head if head > cycle else cycle)
                    if blocked > 0:
                        if window_count >= win_size:
                            stall_window += blocked
                        elif next_dispatch - retired >= rob_size:
                            stall_rob += blocked
            if tele is not None:
                # classify the skipped cycles in bulk.  The machine state
                # is frozen throughout, so the span splits into at most
                # two constant classes: cycles before the pipeline head's
                # latch expires are front-end starvation, cycles after it
                # are a structural dispatch stall (the skip logic only
                # lets the head become ready when a structure is full —
                # otherwise dispatch would progress and end the skip)
                if waiting_branch >= 0:
                    idle_cls = CLS_BRANCH
                elif (
                    retired < next_dispatch
                    and long_miss[retired]
                    and complete[retired] > cycle
                ):
                    idle_cls = CLS_DCACHE_LONG
                else:
                    idle_cls = front_cause
                if pipe:
                    head = pipe[0][0]
                    split = head if head > cycle else cycle
                    if split > t_next:
                        split = t_next
                    if split > cycle:
                        tele.charge(idle_cls, cycle, split - cycle)
                    if t_next > split:
                        if window_count >= win_size:
                            blocked_cls = CLS_WINDOW_FULL
                        elif next_dispatch - retired >= rob_size:
                            blocked_cls = (
                                CLS_DCACHE_LONG
                                if long_miss[retired]
                                and complete[retired] > cycle
                                else CLS_ROB_FULL
                            )
                        else:  # pragma: no cover — see span-split note
                            blocked_cls = idle_cls
                        tele.charge(blocked_cls, split, t_next - split)
                else:
                    tele.charge(idle_cls, cycle, skip)
                tele.occupancy(
                    cycle, skip, next_dispatch - retired, window_count
                )
            cycle = t_next

    instr = None
    if instrument:
        instr = Instrumentation(
            issued_histogram=np.array(hist, dtype=np.int64),
            window_left_at_mispredict=window_left,
            rob_ahead_at_long_miss=rob_ahead,
            dispatch_stall_rob=stall_rob,
            dispatch_stall_window=stall_window,
        )

    return SimResult(
        name=name,
        instructions=total,
        cycles=cycle,
        config=cfg,
        misprediction_count=misp_total,
        icache_short_count=ic_short,
        icache_long_count=ic_long,
        dcache_long_count=dc_long,
        instrumentation=instr,
    )
