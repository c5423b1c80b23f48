package overload

// controller is the feedback half of the gate: it turns the stream of
// pressure scores into (a) a smoothed pressure that drives the sampling
// rates continuously and (b) a shedding tier that moves in discrete
// steps with hysteresis.
//
// The tier state machine:
//
//	score ≥ engage     → hot streak grows; engageAfter consecutive
//	                     hot evaluations escalate one tier and restart
//	                     the streak.
//	score ≤ disengage  → cool streak grows; cooldownEvals consecutive
//	                     cool evaluations release one tier and restart
//	                     the streak.
//	in between (the band) → both streaks reset: the tier holds.
//
// Because a release requires the score to stay *below* the band for the
// whole cool-down while an engagement requires it *above* the band,
// a score oscillating around either threshold cannot flap the tier —
// crossing into the band resets the opposing streak.
type controller struct {
	// engage is Config.EngagePressure; disengage is disengagePressure,
	// or engage/2 when engage is not above it.
	engage, disengage float64

	tier     Tier
	smoothed float64
	hot      int
	cool     int
}

func (c *controller) init(engage float64) {
	c.engage, c.disengage = engage, disengagePressure
	if c.disengage >= engage {
		c.disengage = engage / 2
	}
}

// evaluate consumes one pressure score and reports whether the tier
// escalated or released on this evaluation.
func (c *controller) evaluate(score float64) (engaged, released bool) {
	c.smoothed += smoothing * (score - c.smoothed)
	switch {
	case score >= c.engage:
		c.cool = 0
		c.hot++
		if c.hot >= engageAfter && c.tier < TierStream {
			c.tier++
			c.hot = 0
			return true, false
		}
	case score <= c.disengage:
		c.hot = 0
		c.cool++
		if c.cool >= cooldownEvals && c.tier > TierNone {
			c.tier--
			c.cool = 0
			return false, true
		}
	default:
		c.hot, c.cool = 0, 0
	}
	return false, false
}
