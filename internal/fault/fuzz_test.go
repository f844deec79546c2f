package fault

import "testing"

// FuzzParse checks that the fault-spec parser never panics, and that a
// plan it accepts which is valid on Table 1's machine (128 units, 16
// stacks) renders through String to a spec that parses back to the same
// cache key: a printed plan names the same simulation. The committed
// corpus in testdata/fuzz/FuzzParse holds the inputs that broke this.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"",
		"dram:0.001",
		"dram:0.002:5;seed:9",
		"slow:8-11:4",
		"slow:3:2:1.5@100-2000",
		"slow:0:1@0-7",
		"kill:70@2500",
		"kill:32-35@25000;retry:4",
		"link:5:+x@10;link:2:n@0",
		"dram:0.001;slow:0:2;kill:1@5;link:2:+y@6;retry:3;seed:7",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil || p.Validate(128, 16) != nil {
			return
		}
		out := p.String()
		rt, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) -> String %q does not parse: %v", spec, out, err)
		}
		if got, want := rt.Key(), p.Key(); got != want {
			t.Fatalf("Parse(%q) has key %q, but its String %q parses to key %q", spec, want, out, got)
		}
	})
}
