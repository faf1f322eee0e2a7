//! The padding clock of a sender gateway, and a non-target sender as an
//! emitter the aggregate's trunk pulls.
//!
//! What a padding gateway puts on the wire depends only on its timer,
//! its disturbance δ_gw and its payload arrivals (paper §3.2, eq.
//! 10–13). [`PaddingClock`] holds the first two and the wire size: the
//! interval law or adaptive machine, the timer discipline, the jitter
//! model, the start phase and the size law. Each tick draws, in this
//! order, δ_gw from the payload arrivals since the last tick, then the
//! wire size, then the next interval. The
//! [`SenderGateway`](crate::gateway::SenderGateway) node calls it on
//! every timer, and so does [`GatewayEmitter`].
//!
//! [`GatewayEmitter`] is a sender gateway plus its payload source,
//! pulled on demand as an [`Emitter`] instead of two engine nodes. A
//! non-target sender of an aggregate is open-loop: nothing downstream
//! feeds back, and its payload only sets the arrival count δ_gw reads,
//! the queue (payload or dummy, which the wire does not show) and the
//! trigger of reactive adaptive padding. So the emitter advances its own
//! payload law to each tick, drawing the gaps a
//! [`DistSource`](linkpad_sim::source::DistSource) draws, and fires the
//! tick the gateway's timer would: the same instants, delays and sizes
//! for the same two streams. A payload arrival at exactly a tick instant
//! counts toward the next tick, as in the engine, where the tick's timer
//! was scheduled before the arrival's delivery.

use crate::gateway::TimerDiscipline;
use crate::jitter::GatewayJitterModel;
use crate::schedule::LinkSchedule;
use linkpad_sim::time::{SimDuration, SimTime};
use linkpad_sim::trunk::{Emitter, EmitterHandle};
use linkpad_stats::dist::ContinuousDist;
use linkpad_stats::rng::Xoshiro256StarStar;
use rand_core::RngCore;

/// One tick's draws (see [`PaddingClock::tick`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Tick {
    /// The disturbance δ_gw, seconds (zero-mean baseline, so it may be
    /// negative).
    pub(crate) delay: f64,
    /// From the tick instant to the send: the constant pipeline offset
    /// plus δ_gw, floored at zero.
    pub(crate) send_delay: SimDuration,
    /// Wire size of the packet, bytes.
    pub(crate) size: u32,
    /// From the tick instant to the next tick.
    pub(crate) rearm: SimDuration,
}

/// The padding timer of one sender gateway (see the module doc).
#[derive(Debug)]
pub struct PaddingClock {
    schedule: LinkSchedule,
    jitter: GatewayJitterModel,
    discipline: TimerDiscipline,
    /// Constant on-the-wire size of every padded packet (threat model
    /// remark 3: all packets look identical).
    packet_size: u32,
    /// Wire-size law for variable-payload defences: when set, each
    /// emission samples its on-the-wire size (floored to whole bytes,
    /// min 1) instead of using the constant `packet_size`. Deterministic
    /// laws (fixed, MTU-padded) make zero RNG draws.
    size_law: Option<Box<dyn ContinuousDist>>,
    /// Clock start offset: the first timer interval is measured from
    /// `start_phase` instead of simulation time zero, so the tick grid
    /// sits at `start_phase + Σ Tⱼ`.
    start_phase: SimDuration,
}

impl PaddingClock {
    /// A clock under `schedule` (a [`PaddingSchedule`] law or a full
    /// [`LinkSchedule`], via `Into`) and `jitter`, sending packets of
    /// `packet_size` bytes, with the [`TimerDiscipline::Absolute`]
    /// discipline and no start phase.
    ///
    /// [`PaddingSchedule`]: crate::schedule::PaddingSchedule
    pub fn new(
        schedule: impl Into<LinkSchedule>,
        jitter: GatewayJitterModel,
        packet_size: u32,
    ) -> Self {
        Self {
            schedule: schedule.into(),
            jitter,
            discipline: TimerDiscipline::Absolute,
            packet_size,
            size_law: None,
            start_phase: SimDuration::ZERO,
        }
    }

    /// Select the timer discipline.
    pub fn with_discipline(mut self, discipline: TimerDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Start the clock at an offset: every tick's nominal instant shifts
    /// by exactly `phase`.
    pub fn with_start_phase(mut self, phase: SimDuration) -> Self {
        self.start_phase = phase;
        self
    }

    /// Install a wire-size law (default: every packet is exactly
    /// `packet_size`).
    pub fn with_packet_size_law(mut self, law: Box<dyn ContinuousDist>) -> Self {
        self.size_law = Some(law);
        self
    }

    /// The configured schedule.
    pub(crate) fn schedule(&self) -> &LinkSchedule {
        &self.schedule
    }

    /// From time zero to the first tick: the start phase plus the first
    /// interval draw.
    pub(crate) fn first_tick(&mut self, rng: &mut Xoshiro256StarStar) -> SimDuration {
        let first = self.schedule.next_interval_secs(rng);
        self.start_phase
            .saturating_add(SimDuration::from_secs_f64(first))
    }

    /// One tick, after `arrivals` payload arrivals since the last one.
    /// Draws δ_gw (payload arrivals block the timer interrupt), then the
    /// wire size, then the next interval, and re-arms after the interval
    /// ([`TimerDiscipline::Absolute`]) or after the interval plus the send
    /// delay ([`TimerDiscipline::Relative`]).
    #[inline]
    pub(crate) fn tick(&mut self, arrivals: u32, rng: &mut Xoshiro256StarStar) -> Tick {
        let delay = self.jitter.sample_tick_delay(arrivals, rng);
        // Fixed pipeline offset keeps the (possibly negative) zero-mean
        // jitter causal; being constant, it shifts every timestamp
        // equally and is invisible in inter-arrival times.
        let send_delay = (self.jitter.pipeline_offset() + delay).max(0.0);
        let size = match &self.size_law {
            Some(law) => law.sample(rng).floor().max(1.0) as u32,
            None => self.packet_size,
        };
        let interval = self.schedule.next_interval_secs(rng);
        let rearm = match self.discipline {
            TimerDiscipline::Absolute => interval,
            TimerDiscipline::Relative => interval + send_delay,
        };
        Tick {
            delay,
            send_delay: SimDuration::from_secs_f64(send_delay),
            size,
            rearm: SimDuration::from_secs_f64(rearm),
        }
    }

    /// A client packet arrived: reactive adaptive padding opens a fresh
    /// burst (no-op for laws and non-reactive machines).
    pub(crate) fn notify_client_arrival(&mut self) {
        self.schedule.notify_client_arrival();
    }

    /// Return the schedule's machine state to its initial value.
    pub(crate) fn reset(&mut self) {
        self.schedule.reset();
    }
}

/// A sender gateway and its payload source as one [`Emitter`] (see the
/// module doc). Its handle counts ticks.
#[derive(Debug)]
pub struct GatewayEmitter {
    clock: PaddingClock,
    /// Inter-arrival law of the flow's payload, seconds.
    payload: Box<dyn ContinuousDist>,
    clock_rng: Xoshiro256StarStar,
    payload_rng: Xoshiro256StarStar,
    /// The next tick's instant; `None` until started.
    next_tick: Option<SimTime>,
    /// The next payload arrival not yet counted toward a tick.
    next_payload: SimTime,
    ticks: EmitterHandle,
}

impl GatewayEmitter {
    /// A sender running `clock`, fed payload whose gaps follow `payload`
    /// from time zero (the first arrival after one gap).
    pub fn new(clock: PaddingClock, payload: Box<dyn ContinuousDist>) -> (EmitterHandle, Self) {
        let ticks = EmitterHandle::new(1);
        (
            ticks.clone(),
            Self {
                clock,
                payload,
                clock_rng: Xoshiro256StarStar::from_u64(0),
                payload_rng: Xoshiro256StarStar::from_u64(0),
                next_tick: None,
                next_payload: SimTime::ZERO,
                ticks,
            },
        )
    }

    /// The next payload gap, as `DistSource` draws it.
    fn payload_gap(&mut self) -> SimDuration {
        SimDuration::from_secs_f64(self.payload.sample(&mut self.payload_rng).max(0.0))
    }

    /// Start at time zero with the clock on `clock_rng` and the payload
    /// on `payload_rng`: the gateway's first tick and the source's first
    /// arrival, each drawn from its own stream.
    fn start_on(&mut self, clock_rng: Xoshiro256StarStar, payload_rng: Xoshiro256StarStar) {
        self.clock_rng = clock_rng;
        self.payload_rng = payload_rng;
        self.next_tick = Some(SimTime::ZERO + self.clock.first_tick(&mut self.clock_rng));
        self.next_payload = SimTime::ZERO + self.payload_gap();
    }
}

impl Emitter for GatewayEmitter {
    /// The payload draws from a stream seeded by the first draw of
    /// `rng`, and the clock from `rng` itself after that draw.
    fn start(&mut self, mut rng: Xoshiro256StarStar) {
        let payload_rng = Xoshiro256StarStar::from_u64(rng.next_u64());
        self.start_on(rng, payload_rng);
    }

    #[inline]
    fn next_fire(&self) -> Option<SimTime> {
        self.next_tick
    }

    /// Fire the tick due at [`Emitter::next_fire`]: count the payload
    /// arrivals before it, draw the tick, and emit its packet.
    fn fire(&mut self, mut emit: impl FnMut(SimTime, u32)) {
        let Some(now) = self.next_tick else {
            return;
        };
        let mut arrivals = 0u32;
        while self.next_payload < now {
            arrivals = arrivals.saturating_add(1);
            let gap = self.payload_gap();
            self.next_payload += gap;
        }
        if arrivals > 0 {
            self.clock.notify_client_arrival();
        }
        let tick = self.clock.tick(arrivals, &mut self.clock_rng);
        emit(now + tick.send_delay, tick.size);
        self.next_tick = Some(now + tick.rearm);
        self.ticks.add(1);
    }

    fn reset(&mut self) {
        self.clock.reset();
        self.next_tick = None;
        self.ticks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::{GatewayHandle, SenderGateway};
    use crate::schedule::{AdaptivePadding, PaddingSchedule};
    use linkpad_sim::engine::{Sim, SimBuilder};
    use linkpad_sim::observer::{ObserverHandle, WindowStats, WindowedObserver};
    use linkpad_sim::packet::{FlowId, PacketKind};
    use linkpad_sim::source::DistSource;
    use linkpad_sim::trunk::Trunk;
    use linkpad_stats::dist::{Deterministic, Exponential, Uniform};
    use linkpad_stats::rng::MasterSeed;

    const SEED: u64 = 31;
    const TAU: f64 = 0.010;

    /// One sender configuration, built as a node pair or as an emitter.
    struct Case {
        name: &'static str,
        schedule: fn() -> LinkSchedule,
        discipline: TimerDiscipline,
        size_law: Option<fn() -> Box<dyn ContinuousDist>>,
        payload: fn() -> Box<dyn ContinuousDist>,
        phase: SimDuration,
    }

    /// A trunk whose far end watches 20 ms windows.
    fn trunk<E: Emitter>() -> (ObserverHandle, Trunk<E>) {
        let (observer, node) = WindowedObserver::new(SimDuration::from_millis_f64(20.0));
        let trunk = Trunk::new(node, None, 1e9, SimDuration::from_millis_f64(1.0));
        (observer, trunk)
    }

    /// The per-event reference: a plain trunk (node 0) fed by a
    /// `SenderGateway` (node 1) fed by a `DistSource` (node 2).
    fn reference(case: &Case) -> (Sim, ObserverHandle, GatewayHandle) {
        let mut b = SimBuilder::new(MasterSeed::new(SEED));
        let (observer, trunk) = trunk::<GatewayEmitter>();
        let trunk = b.add_node(Box::new(trunk));
        let jitter = GatewayJitterModel::calibrated();
        let (handle, mut gw) = SenderGateway::new(trunk, (case.schedule)(), jitter, 500);
        gw = gw
            .with_discipline(case.discipline)
            .with_start_phase(case.phase);
        if let Some(law) = case.size_law {
            gw = gw.with_packet_size_law(law());
        }
        let gw = b.add_node(Box::new(gw));
        b.add_node(Box::new(DistSource::new(
            gw,
            FlowId::PADDED,
            PacketKind::Payload,
            (case.payload)(),
            Box::new(Deterministic::new(500.0).unwrap()),
        )));
        (b.build().unwrap(), observer, handle)
    }

    /// An emitter started on the reference's gateway and source streams
    /// instead of the one its trunk hands it.
    struct OnNodeStreams(GatewayEmitter);

    impl Emitter for OnNodeStreams {
        fn start(&mut self, _rng: Xoshiro256StarStar) {
            let seed = MasterSeed::new(SEED);
            self.0.start_on(seed.stream(1), seed.stream(2));
        }
        fn next_fire(&self) -> Option<SimTime> {
            self.0.next_fire()
        }
        fn fire(&mut self, emit: impl FnMut(SimTime, u32)) {
            self.0.fire(emit);
        }
        fn reset(&mut self) {
            self.0.reset();
        }
    }

    /// The same sender as one emitter, served by the trunk alone.
    fn emitted(case: &Case) -> (Sim, ObserverHandle, EmitterHandle) {
        let mut clock = PaddingClock::new((case.schedule)(), GatewayJitterModel::calibrated(), 500)
            .with_discipline(case.discipline)
            .with_start_phase(case.phase);
        if let Some(law) = case.size_law {
            clock = clock.with_packet_size_law(law());
        }
        let (handle, emitter) = GatewayEmitter::new(clock, (case.payload)());
        let (observer, trunk) = trunk();
        let mut b = SimBuilder::new(MasterSeed::new(SEED));
        b.add_node(Box::new(trunk.with_emitter(OnNodeStreams(emitter))));
        (b.build().unwrap(), observer, handle)
    }

    /// A window series as raw bits: counts, bytes and the PIAT moments.
    fn series_bits(windows: &[WindowStats]) -> Vec<u64> {
        let opt = |x: Option<f64>| x.map_or(u64::MAX, f64::to_bits);
        windows
            .iter()
            .flat_map(|w| {
                [
                    w.count,
                    w.bytes,
                    w.piats.count(),
                    opt(w.piats.mean()),
                    opt(w.piats.variance()),
                    w.piats.min().to_bits(),
                    w.piats.max().to_bits(),
                ]
            })
            .collect()
    }

    fn cit() -> LinkSchedule {
        PaddingSchedule::cit(TAU).unwrap().into()
    }

    #[test]
    fn a_gateway_emitter_equals_a_gateway_and_source_feeding_a_plain_trunk() {
        let cases = [
            // 50 pps on the 10 ms grid: every arrival lands exactly on a
            // tick instant and counts toward the next tick.
            Case {
                name: "cit, arrivals on tick instants",
                schedule: cit,
                discipline: TimerDiscipline::Absolute,
                size_law: None,
                payload: || Box::new(Deterministic::new(1.0 / 50.0).unwrap()),
                phase: SimDuration::ZERO,
            },
            Case {
                name: "relative vit, poisson payload",
                schedule: || {
                    PaddingSchedule::vit_truncated_normal(TAU, 1e-3)
                        .unwrap()
                        .into()
                },
                discipline: TimerDiscipline::Relative,
                size_law: None,
                payload: || Box::new(Exponential::with_rate(40.0).unwrap()),
                phase: SimDuration::from_nanos(3_333_333),
            },
            Case {
                name: "reactive adaptive padding, poisson payload",
                schedule: || AdaptivePadding::reactive(TAU).unwrap().into(),
                discipline: TimerDiscipline::Absolute,
                size_law: None,
                payload: || Box::new(Exponential::with_rate(30.0).unwrap()),
                phase: SimDuration::ZERO,
            },
            Case {
                name: "cit, size law",
                schedule: cit,
                discipline: TimerDiscipline::Absolute,
                size_law: Some(|| Box::new(Uniform::new(300.0, 901.0).unwrap())),
                payload: || Box::new(Exponential::with_rate(10.0).unwrap()),
                phase: SimDuration::from_nanos(1_000_000),
            },
        ];
        let tick_ns = SimDuration::from_secs_f64(TAU).as_nanos();
        assert_eq!(
            SimDuration::from_secs_f64(1.0 / 50.0).as_nanos() % tick_ns,
            0
        );
        for case in &cases {
            let (mut node_sim, node_view, gateway) = reference(case);
            let (mut emitter_sim, emitter_view, ticks) = emitted(case);
            // 7.0001 ms slices, off the tick grid: bounds fall between a
            // tick and its packet's arrival, where only the horizon
            // serves it.
            for k in 1..=400u64 {
                let until = SimTime::from_nanos(k * 7_000_100);
                node_sim.run_until(until);
                emitter_sim.run_until(until);
                assert_eq!(
                    series_bits(&emitter_view.window_series()),
                    series_bits(&node_view.window_series()),
                    "{}: window series differ by {until:?}",
                    case.name
                );
                assert_eq!(ticks.emitted(), gateway.ticks(), "{}", case.name);
            }
            assert!(gateway.payload_sent() > 20, "{}", case.name);
            assert!(node_view.arrivals() > 250, "{}", case.name);
            assert_eq!(emitter_sim.events_processed(), 0, "{}", case.name);
            // A reset replays the emitter from scratch.
            emitter_sim.reset(MasterSeed::new(SEED));
            assert_eq!(ticks.emitted(), 0);
            emitter_sim.run_until(SimTime::from_nanos(400 * 7_000_100));
            assert_eq!(
                series_bits(&emitter_view.window_series()),
                series_bits(&node_view.window_series()),
                "{}: after a reset",
                case.name
            );
        }
    }

    #[test]
    fn relative_discipline_adds_the_send_delay_to_the_period() {
        let jitter = GatewayJitterModel::new(0.0, 1e-3).unwrap();
        let mut rng = Xoshiro256StarStar::from_u64(4);
        let mut absolute = PaddingClock::new(PaddingSchedule::cit(TAU).unwrap(), jitter, 500);
        let mut relative = PaddingClock::new(PaddingSchedule::cit(TAU).unwrap(), jitter, 500)
            .with_discipline(TimerDiscipline::Relative);
        let a = absolute.tick(2, &mut rng.clone());
        let r = relative.tick(2, &mut rng);
        assert_eq!(a.send_delay, r.send_delay);
        assert!(
            a.send_delay > SimDuration::ZERO,
            "two arrivals block the timer"
        );
        assert_eq!(a.rearm, SimDuration::from_secs_f64(TAU));
        assert_eq!(
            r.rearm,
            SimDuration::from_secs_f64(TAU + a.send_delay.as_secs_f64())
        );
    }
}
