package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSampleMeanCI(t *testing.T) {
	var s Sample
	for _, x := range []float64{10, 12, 14} {
		s.Add(x)
	}
	if s.Mean() != 12 {
		t.Errorf("mean = %v, want 12", s.Mean())
	}
	if s.StdDev() != 2 {
		t.Errorf("stddev = %v, want 2", s.StdDev())
	}
	// CI95 with n=3, df=2: 4.303 * 2 / sqrt(3).
	want := 4.303 * 2 / math.Sqrt(3)
	if math.Abs(s.CI95()-want) > 1e-9 {
		t.Errorf("ci = %v, want %v", s.CI95(), want)
	}
}

func TestSampleDegenerate(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.CI95() != 0 || s.StdDev() != 0 {
		t.Error("empty sample not zero")
	}
	s.Add(5)
	if s.Mean() != 5 || s.CI95() != 0 {
		t.Error("single-observation sample wrong")
	}
}

// Property: the mean lies within [min, max] of the observations.
func TestPropertyMeanBounded(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		var s Sample
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			// Scale into a range whose sum cannot overflow.
			x = math.Mod(x, 1e12)
			s.Add(x)
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		m := s.Mean()
		eps := 1e-6 * (math.Abs(lo) + math.Abs(hi) + 1)
		return m >= lo-eps && m <= hi+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTrafficAccumulates(t *testing.T) {
	var tr Traffic
	tr.Add(IntraCMP, Request, 8)
	tr.Add(IntraCMP, Request, 8)
	tr.Add(InterCMP, ResponseData, 72)
	if tr.TotalBytes(IntraCMP) != 16 || tr.TotalMessages(IntraCMP) != 2 {
		t.Error("intra accumulation wrong")
	}
	if tr.TotalBytes(InterCMP) != 72 {
		t.Error("inter accumulation wrong")
	}
	var other Traffic
	other.Add(InterCMP, ResponseData, 72)
	tr.Merge(&other)
	if tr.TotalBytes(InterCMP) != 144 {
		t.Error("merge wrong")
	}
}

func TestTrafficClassNames(t *testing.T) {
	for c := TrafficClass(0); c < NumTrafficClasses; c++ {
		if c.String() == "" {
			t.Errorf("class %d has no name", c)
		}
	}
	if IntraCMP.String() != "intra-CMP" || InterCMP.String() != "inter-CMP" {
		t.Error("level names wrong")
	}
}

// Property: the streaming Welford accumulator agrees with a two-pass
// reference computation over the retained observations.
func TestPropertyWelfordMatchesTwoPass(t *testing.T) {
	f := func(xs []float64) bool {
		var s Sample
		kept := make([]float64, 0, len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			x = math.Mod(x, 1e9)
			s.Add(x)
			kept = append(kept, x)
		}
		if len(kept) < 2 {
			return s.StdDev() == 0
		}
		var sum float64
		for _, x := range kept {
			sum += x
		}
		mean := sum / float64(len(kept))
		var ss float64
		for _, x := range kept {
			d := x - mean
			ss += d * d
		}
		ref := math.Sqrt(ss / float64(len(kept)-1))
		scale := ref + math.Abs(mean) + 1
		return math.Abs(s.Mean()-mean) <= 1e-9*scale && math.Abs(s.StdDev()-ref) <= 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
