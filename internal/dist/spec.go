package dist

import (
	"fmt"

	"boltondp/internal/loss"
	"boltondp/internal/sgd"
)

// Step-spec kinds — the wire names of the sgd schedule constructors.
const (
	StepConstant       = "constant"
	StepDecreasing     = "decreasing"
	StepSqrt           = "sqrt"
	StepStronglyConvex = "stronglyconvex"
)

// Loss-spec kinds — the wire names of the internal/loss types.
const (
	lossLogistic     = "logistic"
	lossHuber        = "huber"
	lossLeastSquares = "leastsquares"
)

// LossSpecFor derives the wire form of f. Only the three internal/loss
// types are expressible; anything else is an error (a custom loss has
// no wire identity the worker could reconstruct).
func LossSpecFor(f loss.Function) (LossSpec, error) {
	switch l := f.(type) {
	case *loss.Logistic:
		return LossSpec{Kind: lossLogistic, Lambda: l.Lambda, R: l.R}, nil
	case *loss.Huber:
		return LossSpec{Kind: lossHuber, Lambda: l.Lambda, H: l.H, R: l.R}, nil
	case *loss.LeastSquares:
		return LossSpec{Kind: lossLeastSquares, Lambda: l.Lambda, R: l.R}, nil
	default:
		return LossSpec{}, fmt.Errorf("dist: loss %q has no wire form (want one of the internal/loss types)", f.Name())
	}
}

// Build reconstructs the loss. Struct literals, not constructors: the
// spec carries the resolved fields verbatim, so the rebuilt loss is
// arithmetic-identical to the coordinator's — no re-defaulting of R.
func (s LossSpec) Build() (loss.Function, error) {
	switch s.Kind {
	case lossLogistic:
		if s.Lambda < 0 {
			return nil, fmt.Errorf("dist: negative lambda %v", s.Lambda)
		}
		return &loss.Logistic{Lambda: s.Lambda, R: s.R}, nil
	case lossHuber:
		if s.H <= 0 {
			return nil, fmt.Errorf("dist: huber loss needs h > 0, got %v", s.H)
		}
		if s.Lambda < 0 {
			return nil, fmt.Errorf("dist: negative lambda %v", s.Lambda)
		}
		return &loss.Huber{H: s.H, Lambda: s.Lambda, R: s.R}, nil
	case lossLeastSquares:
		if s.Lambda < 0 {
			return nil, fmt.Errorf("dist: negative lambda %v", s.Lambda)
		}
		return &loss.LeastSquares{Lambda: s.Lambda, R: s.R}, nil
	default:
		return nil, fmt.Errorf("dist: unknown loss kind %q", s.Kind)
	}
}

// Build reconstructs the schedule from its resolved parameters. The
// constructors are pure functions of the spec's numbers, so both sides
// evaluate the exact same η_t sequence.
func (s StepSpec) Build() (sgd.Schedule, error) {
	switch s.Kind {
	case StepConstant:
		return sgd.Constant(s.Eta), nil
	case StepDecreasing:
		if s.Beta <= 0 || s.M < 1 {
			return nil, fmt.Errorf("dist: decreasing step needs beta > 0 and m >= 1, got beta=%v m=%d", s.Beta, s.M)
		}
		return sgd.DecreasingConvex(s.Beta, s.M, s.C), nil
	case StepSqrt:
		if s.Beta <= 0 || s.M < 1 {
			return nil, fmt.Errorf("dist: sqrt step needs beta > 0 and m >= 1, got beta=%v m=%d", s.Beta, s.M)
		}
		return sgd.SqrtConvex(s.Beta, s.M, s.C), nil
	case StepStronglyConvex:
		if s.Beta <= 0 || s.Gamma <= 0 {
			return nil, fmt.Errorf("dist: strongly convex step needs beta > 0 and gamma > 0, got beta=%v gamma=%v", s.Beta, s.Gamma)
		}
		return sgd.StronglyConvexPaper(s.Beta, s.Gamma), nil
	default:
		return nil, fmt.Errorf("dist: unknown step kind %q", s.Kind)
	}
}

// validate checks the spec fields every shard shares, before any data
// is opened.
func (s *TrainSpec) validate() error {
	if s.Batch < 1 {
		return fmt.Errorf("dist: batch %d < 1", s.Batch)
	}
	if s.KernelWorkers < 0 {
		return fmt.Errorf("dist: kernelWorkers %d < 0", s.KernelWorkers)
	}
	if _, err := s.Loss.Build(); err != nil {
		return err
	}
	if _, err := s.Step.Build(); err != nil {
		return err
	}
	return nil
}
