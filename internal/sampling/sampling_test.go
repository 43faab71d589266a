package sampling

import (
	"math"
	"math/rand"
	"testing"
)

func TestScheduleDefaults(t *testing.T) {
	sizes, err := ScheduleWithFloor(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != DefaultSteps {
		t.Fatalf("got %d steps, want %d", len(sizes), DefaultSteps)
	}
	if sizes[0] != 500 {
		t.Errorf("first size %d, want 0.05%% = 500", sizes[0])
	}
	if sizes[len(sizes)-1] != 20000 {
		t.Errorf("last size %d, want 2%% = 20000", sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Errorf("schedule not strictly increasing at %d: %v", i, sizes)
		}
	}
}

func TestScheduleTinyDataset(t *testing.T) {
	sizes, err := ScheduleWithFloor(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) < 2 {
		t.Fatalf("tiny dataset schedule %v too short", sizes)
	}
	for _, s := range sizes {
		if s < 1 || s > 10 {
			t.Errorf("size %d out of [1,10]", s)
		}
	}
	if _, err := ScheduleWithFloor(1); err == nil {
		t.Error("n=1 cannot support a 2-point schedule")
	}
}

func TestScheduleValidation(t *testing.T) {
	for _, n := range []int{0, -5} {
		if _, err := ScheduleWithFloor(n); err == nil {
			t.Errorf("n=%d accepted", n)
		}
	}
}

func TestFitLinearExact(t *testing.T) {
	// y = 3x + 7 must be recovered exactly.
	pts := []Point{{1, 10}, {2, 13}, {5, 22}, {10, 37}}
	fit, err := FitLinear(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-3) > 1e-12 || math.Abs(fit.Intercept-7) > 1e-12 {
		t.Errorf("fit = %+v, want slope 3 intercept 7", fit)
	}
	if fit.R2 < 1-1e-12 {
		t.Errorf("R² = %v, want 1", fit.R2)
	}
	if p := fit.Predict(100); math.Abs(p-307) > 1e-9 {
		t.Errorf("Predict(100) = %v", p)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var pts []Point
	for i := 0; i < 200; i++ {
		x := float64(i + 1)
		pts = append(pts, Point{x, 2*x + 5 + rng.NormFloat64()*0.5})
	}
	fit, err := FitLinear(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 0.01 || math.Abs(fit.Intercept-5) > 1 {
		t.Errorf("noisy fit %+v far from y=2x+5", fit)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R² = %v", fit.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]Point{{1, 1}}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FitLinear([]Point{{2, 1}, {2, 5}}); err == nil {
		t.Error("vertical data accepted")
	}
}

func TestClampNonNegative(t *testing.T) {
	f := LinearFit{Slope: -1, Intercept: -2}.ClampNonNegative()
	if f.Slope != 0 || f.Intercept != 0 {
		t.Errorf("clamp gave %+v", f)
	}
	g := LinearFit{Slope: 2, Intercept: 3}.ClampNonNegative()
	if g.Slope != 2 || g.Intercept != 3 {
		t.Errorf("clamp changed valid fit: %+v", g)
	}
}

func TestFitPolyRecoversQuadratic(t *testing.T) {
	// y = 0.5x² − 2x + 3.
	var pts []Point
	for _, x := range []float64{1, 2, 3, 5, 8, 13, 21} {
		pts = append(pts, Point{x, 0.5*x*x - 2*x + 3})
	}
	fit, err := FitPoly(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, -2, 0.5}
	for k, c := range want {
		if math.Abs(fit.Coeffs[k]-c) > 1e-6 {
			t.Errorf("coeff %d = %v, want %v", k, fit.Coeffs[k], c)
		}
	}
	if math.Abs(fit.Predict(10)-(0.5*100-20+3)) > 1e-6 {
		t.Errorf("Predict(10) = %v", fit.Predict(10))
	}
}

func TestFitPolyDegree1MatchesLinear(t *testing.T) {
	pts := []Point{{1, 4}, {2, 6}, {3, 8}, {7, 16}}
	lin, err := FitLinear(pts)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := FitPoly(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pol.Coeffs[1]-lin.Slope) > 1e-9 || math.Abs(pol.Coeffs[0]-lin.Intercept) > 1e-9 {
		t.Errorf("poly deg-1 %+v disagrees with linear %+v", pol, lin)
	}
}

func TestFitPolyErrors(t *testing.T) {
	pts := []Point{{1, 1}, {2, 2}}
	if _, err := FitPoly(pts, 0); err == nil {
		t.Error("degree 0 accepted")
	}
	if _, err := FitPoly(pts, 3); err == nil {
		t.Error("too few points accepted")
	}
	same := []Point{{2, 1}, {2, 2}, {2, 3}}
	if _, err := FitPoly(same, 2); err == nil {
		t.Error("degenerate X accepted")
	}
}

func TestPolyOverfitsWithFewSamples(t *testing.T) {
	// The §III-D argument: with the few samples progressive sampling
	// affords, a high-degree fit interpolates noise and extrapolates
	// badly, while the linear fit stays sane. Generate noisy linear
	// data at 6 sample points, fit both, compare extrapolation error
	// at 50× the largest sample.
	rng := rand.New(rand.NewSource(8))
	truth := func(x float64) float64 { return 0.004*x + 2 }
	var pts []Point
	for _, x := range []float64{500, 1000, 2000, 4000, 8000, 20000} {
		pts = append(pts, Point{x, truth(x) * (1 + rng.NormFloat64()*0.05)})
	}
	lin, err := FitLinear(pts)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := FitPoly(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := 1e6
	linErr := math.Abs(lin.Predict(x) - truth(x))
	polErr := math.Abs(pol.Predict(x) - truth(x))
	if polErr < linErr {
		t.Skipf("degree-4 extrapolated better on this seed (lin %v, poly %v)", linErr, polErr)
	}
	if linErr/truth(x) > 0.25 {
		t.Errorf("linear extrapolation off by %.0f%%", 100*linErr/truth(x))
	}
}

func TestProfileNode(t *testing.T) {
	// A node whose time is 0.002·x + 1: the fit recovers it.
	var pts []Point
	for _, x := range []float64{100, 500, 1000, 5000} {
		pts = append(pts, Point{X: x, Y: 0.002*x + 1})
	}
	fit, err := ProfileNode(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-0.002) > 1e-9 || math.Abs(fit.Intercept-1) > 1e-9 {
		t.Errorf("fit %+v", fit)
	}
	// A line through zero input below zero seconds is clamped, as the
	// modeler requires.
	fit, err = ProfileNode([]Point{{X: 100, Y: 0.1}, {X: 200, Y: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Intercept != 0 || math.Abs(fit.Slope-0.002) > 1e-12 {
		t.Errorf("unclamped fit %+v", fit)
	}
}

// TestProfileNodePropagatesError: a ladder no line can be fitted to is
// the fit's error, not a model.
func TestProfileNodePropagatesError(t *testing.T) {
	if _, err := ProfileNode([]Point{{X: 5, Y: 1}}); err == nil {
		t.Error("single-sample ladder accepted")
	}
	if _, err := ProfileNode([]Point{{X: 5, Y: 1}, {X: 5, Y: 2}}); err == nil {
		t.Error("ladder of one repeated size accepted")
	}
}

func TestScheduleWithFloor(t *testing.T) {
	// Large corpus: floor inactive, behaves like the paper's ladder.
	sizes, err := ScheduleWithFloor(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if sizes[0] != 500 || sizes[len(sizes)-1] != 20000 {
		t.Errorf("large-corpus ladder %v", sizes)
	}
	// Small corpus: floor engages, ceiling stretches to 4× floor.
	sizes, err = ScheduleWithFloor(800)
	if err != nil {
		t.Fatal(err)
	}
	if sizes[0] < DefaultMinRecords {
		t.Errorf("floor broken: %v", sizes)
	}
	if last := sizes[len(sizes)-1]; last < 4*DefaultMinRecords {
		t.Errorf("ceiling %d below 4x floor", last)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("not increasing: %v", sizes)
		}
	}
	// Tiny corpus: two-point fallback, capped at n.
	sizes, err = ScheduleWithFloor(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) < 2 || sizes[len(sizes)-1] > 100 {
		t.Errorf("tiny-corpus ladder %v", sizes)
	}
	if _, err := ScheduleWithFloor(1); err == nil {
		t.Error("n=1 accepted")
	}
}
