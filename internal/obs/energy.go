package obs

import "repro/internal/platform"

// ChargeEvent prices one decision event on a timeline's ledger, the
// one rule the live energy meter and the fleet health tracker share:
// idle at the from-level up to the event, then the prediction slice,
// the DVFS transition (measured, else the table estimate when the level
// changed) and the execution (actual for a completed job, predicted for
// a one-shot decision whose job runs elsewhere). It returns the joules
// of the idle gap and of the run, and the execution seconds priced.
//
//dvfs:hotpath
func ChargeEvent(led *platform.Ledger, e *DecisionEvent) (idleJ, runJ, execSec float64) {
	idleJ = led.IdleUntil(e.TimeSec, e.FromLevel)
	swSec := e.MeasSwitchSec
	if swSec == 0 && e.Level != e.FromLevel {
		swSec = e.SwitchSec
	}
	switch {
	case e.Done && e.ActualExecSec > 0:
		execSec = e.ActualExecSec
	case !e.Done && e.PredictedExecSec > 0:
		execSec = e.PredictedExecSec
	}
	runJ = led.Run(e.FromLevel, e.Level, e.PredictorSec, swSec, execSec)
	return idleJ, runJ, execSec
}
