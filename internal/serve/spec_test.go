package serve

import (
	"strings"
	"testing"

	"repro/internal/seq"
	"repro/internal/simulate"
)

// testPhylipText renders a small simulated alignment as PHYLIP text,
// the form jobs are submitted in.
func testPhylipText(t *testing.T, taxa, sites int, seed int64) string {
	t.Helper()
	ds, err := simulate.New(simulate.Options{Taxa: taxa, Sites: sites, Seed: seed, MeanBranchLen: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := seq.WritePhylip(&b, ds.Alignment, 0); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestPrepareSpecKeys(t *testing.T) {
	aln := testPhylipText(t, 6, 120, 3)
	base := JobSpec{Tenant: "a", Alignment: aln, Options: JobOptions{Seed: 5, Jumbles: 2}}

	p1, err := prepareSpec(base)
	if err != nil {
		t.Fatal(err)
	}

	// Tenant and priority are scheduling attributes, not content: they
	// must not perturb either key.
	other := base
	other.Tenant, other.Priority = "b", 9
	p2, err := prepareSpec(other)
	if err != nil {
		t.Fatal(err)
	}
	if p1.ResultKey != p2.ResultKey || p1.PodKey != p2.PodKey {
		t.Error("tenant/priority changed a content key")
	}

	// Equivalent option spellings hash identically: explicit defaults
	// versus zero values.
	spelled := base
	spelled.Options = JobOptions{
		Model: "f84", TTRatio: 2.0, Jumbles: 2, Seed: 5,
		Extent: 1, FinalExtent: 1, Engine: "cached", SmoothMode: "sweep",
	}
	p3, err := prepareSpec(spelled)
	if err != nil {
		t.Fatal(err)
	}
	if p1.ResultKey != p3.ResultKey {
		t.Errorf("default spelling changed the result key:\n%s\n%s", p1.ResultKey, p3.ResultKey)
	}

	// A different seed is a different result but the same dataset pod.
	seeded := base
	seeded.Options.Seed = 7
	p4, err := prepareSpec(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if p4.ResultKey == p1.ResultKey {
		t.Error("seed change kept the result key")
	}
	if p4.PodKey != p1.PodKey {
		t.Error("seed change moved the job to another pod")
	}

	// A different model is a different pod.
	jc := base
	jc.Options.Model = "JC69"
	p5, err := prepareSpec(jc)
	if err != nil {
		t.Fatal(err)
	}
	if p5.PodKey == p1.PodKey {
		t.Error("model change kept the pod key")
	}
}

func TestPrepareSpecValidation(t *testing.T) {
	aln := testPhylipText(t, 6, 120, 3)
	bad := []JobSpec{
		{Alignment: ""},
		{Alignment: "not phylip"},
		{Alignment: aln, Options: JobOptions{Model: "nope"}},
		{Alignment: aln, Options: JobOptions{Jumbles: MaxJumbles + 1}},
		{Alignment: aln, Options: JobOptions{GTRRates: []float64{1, 2}}},
		{Alignment: aln, Options: JobOptions{Model: "GTR", GTRRates: []float64{1, 2, 3}}},
		{Alignment: aln, Options: JobOptions{Engine: "warp"}},
		{Alignment: aln, Options: JobOptions{Extent: -1}},
	}
	for i, sp := range bad {
		if _, err := prepareSpec(sp); err == nil {
			t.Errorf("spec %d: invalid spec accepted", i)
		}
	}
	// Request bodies name only known fields: a removed option
	// ("precision", "threads") or a misspelled one is a decode error
	// naming the field, not a silently ignored setting.
	for _, field := range []string{`"precision": "float16"`, `"threads": 2`, `"smoothmode": "gradient"`} {
		body := `{"alignment": "x", "options": {` + field + `}}`
		_, err := decodeJobSpec(strings.NewReader(body))
		name := field[:strings.Index(field, ":")]
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("body %s: error %v, want one naming %s", body, err, name)
		}
	}
	if _, err := decodeJobSpec(strings.NewReader(`{"tenant": "a", "alignment": "x", "options": {"seed": 5}}`)); err != nil {
		t.Errorf("known fields rejected: %v", err)
	}
	// Defaults alone are a valid job.
	p, err := prepareSpec(JobSpec{Alignment: aln})
	if err != nil {
		t.Fatal(err)
	}
	if p.Spec.Tenant != "default" || p.Spec.Options.Jumbles != 1 || p.Spec.Options.Model != "F84" {
		t.Errorf("defaults not applied: %+v", p.Spec)
	}
}
