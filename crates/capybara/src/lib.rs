//! **Capybara**: a reconfigurable energy storage architecture for
//! energy-harvesting devices — a full-system reproduction of
//! Colin, Ruppel & Lucia, ASPLOS 2018.
//!
//! Batteryless devices buffer harvested energy in capacitors and operate
//! intermittently. A fixed-capacity buffer cannot serve an application
//! whose tasks have both *capacity* constraints (a radio packet needs a
//! large, atomic quantum of energy) and *temporal* constraints (a sampling
//! task must recharge quickly to stay reactive). Capybara resolves the
//! conflict with capacitor banks that software reconfigures at runtime:
//!
//! * a task annotated [`TaskEnergy::Config`] runs with the bank
//!   configuration of its *energy mode*;
//! * a task annotated [`TaskEnergy::Burst`] spends a *pre-charged* bank
//!   immediately, without a recharge pause on the critical path;
//! * a task annotated [`TaskEnergy::Preburst`] pays the burst's recharge
//!   latency ahead of time, off the critical path.
//!
//! This crate binds the substrates (`capy-power`, `capy-device`,
//! `capy-intermittent`) into a whole-device simulator, [`sim::Simulator`],
//! that executes annotated task graphs under four power-system variants
//! ([`Variant`]): continuously powered, fixed capacity, Capy-R
//! (reconfiguration only), and Capy-P (reconfiguration + pre-charged
//! bursts) — the four systems compared throughout the paper's evaluation.
//!
//! # Example: a sense→process→alert application
//!
//! ```
//! use capybara::prelude::*;
//! use capy_units::{SimTime, SimDuration, Watts, Volts};
//!
//! #[derive(Default)]
//! struct App {
//!     alerts: NvVar<u32>,
//! }
//! impl NvState for App {
//!     fn commit_all(&mut self) { self.alerts.commit(); }
//!     fn abort_all(&mut self) { self.alerts.abort(); }
//! }
//! impl SimContext for App {
//!     fn set_now(&mut self, _now: SimTime) {}
//! }
//!
//! let mcu = Mcu::msp430fr5969();
//! let small = Bank::builder("small").with(parts::ceramic_x5r_400uf()).build();
//! let big = Bank::builder("big").with(parts::edlc_7_5mf()).build();
//! let power = PowerSystem::builder()
//!     .harvester(ConstantHarvester::new(Watts::from_milli(5.0), Volts::new(3.0)))
//!     .bank(small, SwitchKind::NormallyClosed)
//!     .bank(big, SwitchKind::NormallyOpen)
//!     .build();
//!
//! let mut sim = Simulator::builder(Variant::CapyP, power, mcu)
//!     .mode("sense-mode", &[BankId(0)])
//!     .mode("alert-mode", &[BankId(1)])
//!     .task(
//!         "sense",
//!         TaskEnergy::Config(EnergyMode(0)),
//!         |_, mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(10))),
//!         |_app: &mut App| Transition::To(TaskId(1)),
//!     )
//!     .task(
//!         "alert",
//!         TaskEnergy::Burst(EnergyMode(1)),
//!         |_, mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(50))),
//!         |app: &mut App| {
//!             app.alerts.update(|n| n + 1);
//!             Transition::Stop
//!         },
//!     )
//!     .build(App::default());
//!
//! sim.run_until(SimTime::from_secs(600));
//! assert_eq!(sim.ctx().alerts.get(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocate;
pub mod annotation;
pub mod faults;
pub mod fleet;
pub mod mode;
pub mod policy;
pub mod provision;
pub mod runtime;
pub mod sim;
pub mod sweep;
pub mod variant;

pub use annotation::TaskEnergy;
pub use mode::{EnergyMode, ModeTable};
pub use variant::Variant;

/// Convenient glob-import of this crate plus the substrate types an
/// application needs.
pub mod prelude {
    pub use crate::allocate::{allocate, AllocationOptions, AllocationPlan, TaskDemand};
    pub use crate::annotation::TaskEnergy;
    pub use crate::faults::fuzz::{
        derive_case, fuzz_faults, fuzz_policy_grid, replay_case, FuzzCase, FuzzGrid, FuzzOptions,
        FuzzOutcome, FuzzReport,
    };
    pub use crate::faults::{
        explore_kill_grid, explore_kill_grid_replay, ExplorationStats, FaultPlan, KillGridOptions,
        KillOutcome, KillReport, SurgeEffect,
    };
    pub use crate::fleet::{
        parse_harvest_trace, run_fleet_leg_on, run_fleet_on, DeviceOutcome, DevicePoint,
        DeviceWear, EnvError, FleetAccumulator, FleetHarvester, FleetReport, FleetSpec, FleetWear,
        SharedEnvironment, TemplateSpec, FLEET_SHARDS, SURVIVAL_BUCKETS,
    };
    pub use crate::mode::{EnergyMode, ModeTable};
    pub use crate::policy::{
        oracle_offline, run_fleet_policy_sweep_on, run_policy_sweep_on, EwmaAdaptive,
        FleetPolicyComparison, FleetScenario, NamedPolicy, Oracle, Pinned, PolicyComparison,
        PolicyObservation, ReactiveDownsize, ReconfigPolicy, Scenario, StaticAnnotation,
    };
    pub use crate::provision::{provision_bank_units, ProvisioningReport};
    pub use crate::sim::{
        BuildError, RunLimits, RunOutcome, SimContext, SimEvent, SimSnapshot, Simulator,
        SimulatorBuilder, StepResult,
    };
    pub use crate::sweep::{
        available_workers, run_sweep_on, run_sweep_tally_on, run_sweep_with_on, AxisError,
        AxisTable, AxisValue, RunSummary, SweepPoint, SweepReport, SweepRun, SweepSpec,
        WorkerStats,
    };
    pub use crate::variant::Variant;

    pub use capy_device::load::{LoadPhase, TaskLoad};
    pub use capy_device::mcu::Mcu;
    pub use capy_intermittent::nv::{NvState, NvVar, NvVec};
    pub use capy_intermittent::task::{TaskId, Transition};
    pub use capy_power::bank::{Bank, BankId};
    pub use capy_power::harvester::{
        ConstantHarvester, Harvester, RegulatedSupply, RfHarvester, SolarPanel, TraceHarvester,
    };
    pub use capy_power::switch::{SwitchKind, SwitchState};
    pub use capy_power::system::{PowerSystem, PowerSystemBuilder};
    pub use capy_power::technology::parts;
}
