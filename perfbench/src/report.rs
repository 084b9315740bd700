//! What one workload run produced: metrics, phase times and check results.

use crate::calibration::Timing;
use crate::host::PhaseTime;

/// Work units done in a stage of the timed phase, and the stage's time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stage {
    /// Work units (a count the benchmark computes from the outputs).
    pub units: f64,
    /// Wall and reference seconds of the stage's operations.
    pub timing: Timing,
}

impl Stage {
    /// Work units per reference second.
    pub fn rate(&self) -> f64 {
        self.units / self.timing.reference_s
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Median set-up repetition, wall and reference seconds.
    pub setup: Timing,
    /// The timed phase's first stage.
    pub stage_a: Stage,
    /// The timed phase's second stage.
    pub stage_b: Stage,
    /// The workload's own figures: name, value, unit.
    pub info: Vec<(String, f64, String)>,
    /// Wall and CPU time of each timed phase.
    pub phases: Vec<PhaseTime>,
    /// Operations attempted (timed operations plus checks).
    pub attempted: u64,
    /// Failure messages, one per failed operation or check.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records a workload figure.
    pub fn info(&mut self, name: &str, value: f64, unit: &str) {
        self.info.push((name.to_string(), value, unit.to_string()));
    }

    /// Records a failed operation or check.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failures.push(message.into());
    }
}
