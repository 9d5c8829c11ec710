package leaselease

// Version pins: the fixture's own pin state stands in for the engine's
// (leaselease is configured with this package as the pin package).
// (*versions).pin acquires a pin; (*versionPin).release discharges it.

type versions struct{ pins int }

type versionPin struct{ v *versions }

func (v *versions) pin() *versionPin { v.pins++; return &versionPin{v: v} }

func (p *versionPin) release() { p.v.pins-- }

type foldJob struct{ pin *versionPin }

func render(parts int) error {
	if parts < 0 {
		return errEmpty
	}
	return nil
}

// Positive: the pin is never released.
func pinLeak(v *versions) int {
	p := v.pin() // want `version pin may not be released`
	return p.v.pins
}

// Positive: released after the render, leaked when the render fails.
func pinLeakOnError(v *versions, parts int) error {
	p := v.pin() // want `version pin may not be released`
	if err := render(parts); err != nil {
		return err // forgot p.release()
	}
	p.release()
	return nil
}

// Positive: the pin is discarded outright.
func pinDiscard(v *versions) {
	_ = v.pin() // want `version pin is discarded`
}

// Near-miss: a deferred release covers the render's error return, the shape
// of a fold run off the lock.
func pinDeferred(v *versions, parts int) error {
	p := v.pin()
	defer p.release()
	return render(parts)
}

// Near-miss: the pin moves into the job that releases it after its splice.
func pinIntoJob(v *versions) *foldJob {
	job := &foldJob{}
	job.pin = v.pin()
	return job
}

// Near-miss: ownership transfers to the caller through the return.
func pinReturned(v *versions) *versionPin {
	p := v.pin()
	return p
}
