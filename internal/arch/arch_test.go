package arch

import (
	"errors"
	"math"
	"testing"

	"mira/internal/ir"
)

func TestBuiltinsValidate(t *testing.T) {
	for _, d := range builtins() {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
		if len(d.Categories) != 64 {
			t.Errorf("%s: %d categories, want 64 (the paper's count)", d.Name, len(d.Categories))
		}
	}
}

func TestHaswellHasNoFPCounters(t *testing.T) {
	if Arya().HasFPCounters {
		t.Error("arya (Haswell) must lack FP counters (paper Sec. IV-D1)")
	}
	if !Frankenstein().HasFPCounters {
		t.Error("frankenstein (Nehalem) must have FP counters")
	}
}

func TestLookup(t *testing.T) {
	for name, want := range map[string]string{
		"arya": "arya", "haswell": "arya",
		"frankenstein": "frankenstein", "nehalem": "frankenstein",
		"generic": "generic", "": "generic",
	} {
		d, err := NewRegistry().Lookup(name)
		if err != nil || d.Name != want {
			t.Errorf("Lookup(%q) = %v/%v, want %s", name, d, err, want)
		}
	}
	if _, err := NewRegistry().Lookup("vax"); err == nil {
		t.Error("unknown architecture accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := Frankenstein()
	data, err := d.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Name != d.Name || d2.Cores != d.Cores || len(d2.Categories) != 64 {
		t.Errorf("round trip lost data: %+v", d2)
	}
	if d2.FineCategory(ir.ADDSD) != "SSE2 packed arithmetic" {
		t.Errorf("fine category lost: %s", d2.FineCategory(ir.ADDSD))
	}
}

func TestValidationErrors(t *testing.T) {
	d := Generic()
	d.Name = ""
	if err := d.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	d = Generic()
	d.Cores = 0
	if err := d.Validate(); err == nil {
		t.Error("zero cores accepted")
	}
	d = Generic()
	d.OpcodeCategories["addsd"] = "No Such Category"
	if err := d.Validate(); err == nil {
		t.Error("dangling category accepted")
	}
	d = Generic()
	d.Categories = append(d.Categories, d.Categories[0])
	if err := d.Validate(); err == nil {
		t.Error("duplicate category accepted")
	}
	if _, err := FromJSON([]byte("{")); err == nil {
		t.Error("bad JSON accepted")
	}
}

// TestValidateRejectsNonPositive pins the positivity rules: the
// roofline divides by bandwidth, peak issue width, and vector width, so
// a zero or negative parameter must fail validation with ErrNonPositive
// instead of producing NaN/Inf predictions.
func TestValidateRejectsNonPositive(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Description)
	}{
		{"zero cores", func(d *Description) { d.Cores = 0 }},
		{"negative cores", func(d *Description) { d.Cores = -4 }},
		{"zero clock", func(d *Description) { d.ClockGHz = 0 }},
		{"negative clock", func(d *Description) { d.ClockGHz = -2.4 }},
		{"zero vector width", func(d *Description) { d.VectorWidthDoubles = 0 }},
		{"negative vector width", func(d *Description) { d.VectorWidthDoubles = -2 }},
		{"zero peak flops", func(d *Description) { d.PeakFlopsPerCyclePerCore = 0 }},
		{"negative peak flops", func(d *Description) { d.PeakFlopsPerCyclePerCore = -8 }},
		{"zero bandwidth", func(d *Description) { d.MemBandwidthGBs = 0 }},
		{"negative bandwidth", func(d *Description) { d.MemBandwidthGBs = -51.2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := Generic()
			tc.mutate(d)
			err := d.Validate()
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !errors.Is(err, ErrNonPositive) {
				t.Errorf("error %v is not ErrNonPositive", err)
			}
		})
	}
}

// TestValidateRejectsNonFinite: parameters that pass the positivity
// rules but whose peak or ridge point leaves float64 fail validation
// with ErrNonFinite, so no registered machine yields an Inf roofline.
func TestValidateRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Description)
	}{
		{"subnormal bandwidth", func(d *Description) { d.MemBandwidthGBs = 1e-310 }},
		{"infinite bandwidth", func(d *Description) { d.MemBandwidthGBs = math.Inf(1) }},
		{"overflowing peak", func(d *Description) { d.ClockGHz, d.PeakFlopsPerCyclePerCore = 1e200, 1e200 }},
		{"infinite clock", func(d *Description) { d.ClockGHz = math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := Generic()
			tc.mutate(d)
			if err := d.Validate(); !errors.Is(err, ErrNonFinite) {
				t.Errorf("Validate = %v, want ErrNonFinite", err)
			}
		})
	}
	if _, err := FromJSON([]byte(`{"name":"tiny","cores":1,"clock_ghz":1,"vector_width_doubles":2,
		"peak_flops_per_cycle_per_core":4,"mem_bandwidth_gbs":1e-310}`)); !errors.Is(err, ErrNonFinite) {
		t.Errorf("FromJSON of a 1e-310 GB/s description = %v, want ErrNonFinite", err)
	}
}

func TestFineCategoryCoversAllOpcodes(t *testing.T) {
	d := Generic()
	known := map[string]bool{}
	for _, c := range d.Categories {
		known[c] = true
	}
	for op := 0; op < ir.OpCount(); op++ {
		cat := d.FineCategory(ir.Op(op))
		if !known[cat] {
			t.Errorf("opcode %s maps to non-listed category %q", ir.Op(op).Mnemonic(), cat)
		}
	}
}

func TestTableIIAggregation(t *testing.T) {
	cases := map[ir.Op]ir.Category{
		ir.ADDSD:    ir.CatSSEArith,
		ir.MOVSDLD:  ir.CatSSEMove,
		ir.UCOMISD:  ir.CatMisc, // compare folds into Misc for Table II
		ir.CVTSI2SD: ir.CatMisc,
		ir.MOVSXD:   ir.Cat64Bit,
		ir.ADD:      ir.CatIntArith,
		ir.CALL:     ir.CatIntControl,
		ir.MOVRR:    ir.CatIntData,
	}
	for op, want := range cases {
		if got := TableIICategory(op); got != want {
			t.Errorf("TableIICategory(%s) = %s, want %s", op.Mnemonic(), got, want)
		}
	}
}

func TestPeakGFlops(t *testing.T) {
	d := Frankenstein() // 8 cores * 2.4 GHz * 4 flops/cycle
	if got := d.PeakGFlops(); got != 8*2.4*4 {
		t.Errorf("peak = %g", got)
	}
}
