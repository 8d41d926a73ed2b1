package orbit

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
)

// The canonical ISS reference TLE (Wikipedia's worked example).
const (
	issLine1 = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927"
	issLine2 = "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537"
)

func TestParseTLEISS(t *testing.T) {
	tle, err := parseTLE("ISS (ZARYA)", issLine1, issLine2)
	if err != nil {
		t.Fatal(err)
	}
	if tle.Name != "ISS (ZARYA)" {
		t.Errorf("name = %q", tle.Name)
	}
	if tle.CatalogNum != 25544 {
		t.Errorf("catalog = %d", tle.CatalogNum)
	}
	if tle.IntlDesig != "98067A" {
		t.Errorf("intl desig = %q", tle.IntlDesig)
	}
	if tle.EpochYear != 2008 {
		t.Errorf("epoch year = %d", tle.EpochYear)
	}
	if math.Abs(tle.EpochDay-264.51782528) > 1e-8 {
		t.Errorf("epoch day = %v", tle.EpochDay)
	}
	e := tle.Elements
	if math.Abs(e.InclinationDeg-51.6416) > 1e-4 {
		t.Errorf("inclination = %v", e.InclinationDeg)
	}
	if math.Abs(e.RAANDeg-247.4627) > 1e-4 {
		t.Errorf("raan = %v", e.RAANDeg)
	}
	if math.Abs(e.Eccentricity-0.0006703) > 1e-7 {
		t.Errorf("eccentricity = %v", e.Eccentricity)
	}
	if math.Abs(e.ArgPerigeeDeg-130.5360) > 1e-4 {
		t.Errorf("arg perigee = %v", e.ArgPerigeeDeg)
	}
	if math.Abs(e.MeanAnomalyDeg-325.0288) > 1e-4 {
		t.Errorf("mean anomaly = %v", e.MeanAnomalyDeg)
	}
	// 15.72 rev/day → a ≈ 6724 km → ~350 km altitude (the ISS, 2008).
	if alt := e.AltitudeKm(); alt < 300 || alt > 400 {
		t.Errorf("ISS altitude = %v km, want ~350", alt)
	}
	// Period consistency: n rev/day ↔ period.
	wantPeriod := 86400.0 / 15.72125391
	if math.Abs(e.PeriodS()-wantPeriod) > 0.5 {
		t.Errorf("period = %v, want %v", e.PeriodS(), wantPeriod)
	}
}

func TestTLERoundTrip(t *testing.T) {
	// Every Iridium satellite exports to TLE and parses back to the same
	// orbit.
	c, err := Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range c.Satellites[:12] {
		in := FromElements(s.ID, 70000+i, s.Elements)
		l1, l2 := in.FormatTLE()
		if len(l1) != 69 || len(l2) != 69 {
			t.Fatalf("formatted lines %d/%d chars", len(l1), len(l2))
		}
		out, err := parseTLE(s.ID, l1, l2)
		if err != nil {
			t.Fatalf("satellite %s: reparse: %v\n%s\n%s", s.ID, err, l1, l2)
		}
		eIn, eOut := in.Elements, out.Elements
		if math.Abs(eIn.SemiMajorAxisKm-eOut.SemiMajorAxisKm) > 0.01 {
			t.Errorf("%s: a %v → %v", s.ID, eIn.SemiMajorAxisKm, eOut.SemiMajorAxisKm)
		}
		if math.Abs(eIn.InclinationDeg-eOut.InclinationDeg) > 1e-4 ||
			math.Abs(eIn.RAANDeg-eOut.RAANDeg) > 1e-4 ||
			math.Abs(eIn.MeanAnomalyDeg-eOut.MeanAnomalyDeg) > 1e-4 {
			t.Errorf("%s: angles drifted", s.ID)
		}
		// Positions agree to metres over an orbit.
		for _, tt := range []float64{0, 1000, 5000} {
			d := eIn.PositionECI(tt).DistanceKm(eOut.PositionECI(tt))
			if d > 0.5 {
				t.Errorf("%s: position differs by %v km at t=%v", s.ID, d, tt)
			}
		}
		if out.CatalogNum != 70000+i {
			t.Errorf("catalog %d → %d", 70000+i, out.CatalogNum)
		}
	}
}

func TestTLEChecksumRules(t *testing.T) {
	// Digits sum, '-' counts 1, letters/spaces/periods count 0 — verified
	// against the ISS reference lines' published check digits.
	if got := tleChecksum(issLine1); got != 7 {
		t.Errorf("line 1 checksum = %d, want 7", got)
	}
	if got := tleChecksum(issLine2); got != 7 {
		t.Errorf("line 2 checksum = %d, want 7", got)
	}
}

// parseTLE is the test oracle for FormatTLE: it parses the two data lines
// (and an optional preceding name), verifies the checksums, and converts
// the mean motion to a semi-major axis via Kepler's third law.
func parseTLE(name, line1, line2 string) (*TLE, error) {
	line1 = strings.TrimRight(line1, "\r\n")
	line2 = strings.TrimRight(line2, "\r\n")
	if len(line1) != 69 || len(line2) != 69 {
		return nil, errors.New("tle: line must be 69 characters")
	}
	if line1[0] != '1' {
		return nil, fmt.Errorf("tle: wrong line number: line 1 starts with %q", line1[0])
	}
	if line2[0] != '2' {
		return nil, fmt.Errorf("tle: wrong line number: line 2 starts with %q", line2[0])
	}
	for i, l := range []string{line1, line2} {
		want, err := strconv.Atoi(l[68:69])
		if err != nil {
			return nil, fmt.Errorf("tle: malformed field: line %d checksum digit", i+1)
		}
		if got := tleChecksum(l); got != want {
			return nil, fmt.Errorf("tle: checksum mismatch: line %d has %d, want %d", i+1, want, got)
		}
	}
	t := &TLE{Name: strings.TrimSpace(name)}
	var err error
	if t.CatalogNum, err = atoi(line1[2:7]); err != nil {
		return nil, fmt.Errorf("tle: malformed field: catalog number: %v", err)
	}
	t.IntlDesig = strings.TrimSpace(line1[9:17])
	yy, err := atoi(line1[18:20])
	if err != nil {
		return nil, fmt.Errorf("tle: malformed field: epoch year: %v", err)
	}
	if yy < 57 { // TLE convention: 57–99 → 19xx, 00–56 → 20xx
		t.EpochYear = 2000 + yy
	} else {
		t.EpochYear = 1900 + yy
	}
	if t.EpochDay, err = parseFloat(line1[20:32]); err != nil {
		return nil, fmt.Errorf("tle: malformed field: epoch day: %v", err)
	}

	e := Elements{}
	if e.InclinationDeg, err = parseFloat(line2[8:16]); err != nil {
		return nil, fmt.Errorf("tle: malformed field: inclination: %v", err)
	}
	if e.RAANDeg, err = parseFloat(line2[17:25]); err != nil {
		return nil, fmt.Errorf("tle: malformed field: raan: %v", err)
	}
	// Eccentricity has an implied leading decimal point.
	eccDigits := strings.TrimSpace(line2[26:33])
	eccInt, err := strconv.ParseUint(eccDigits, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("tle: malformed field: eccentricity: %v", err)
	}
	e.Eccentricity = float64(eccInt) / 1e7
	if e.ArgPerigeeDeg, err = parseFloat(line2[34:42]); err != nil {
		return nil, fmt.Errorf("tle: malformed field: argument of perigee: %v", err)
	}
	if e.MeanAnomalyDeg, err = parseFloat(line2[43:51]); err != nil {
		return nil, fmt.Errorf("tle: malformed field: mean anomaly: %v", err)
	}
	if t.MeanMotionRevDay, err = parseFloat(line2[52:63]); err != nil {
		return nil, fmt.Errorf("tle: malformed field: mean motion: %v", err)
	}
	if t.MeanMotionRevDay <= 0 {
		return nil, fmt.Errorf("tle: malformed field: mean motion must be positive")
	}
	// n [rad/s] = rev/day · 2π / 86400 ; a = (μ/n²)^(1/3).
	n := t.MeanMotionRevDay * 2 * math.Pi / 86400
	e.SemiMajorAxisKm = math.Cbrt(geo.EarthMuKm3S2 / (n * n))
	t.Elements = e
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func atoi(s string) (int, error) { return strconv.Atoi(strings.TrimSpace(s)) }

func parseFloat(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}
