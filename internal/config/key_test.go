package config

import (
	"reflect"
	"testing"

	"abndp/internal/fault"
)

// perturb changes field i of c to a value different from its current one.
func perturb(t *testing.T, c *Config, i int) string {
	t.Helper()
	v := reflect.ValueOf(c).Elem().Field(i)
	f := reflect.TypeOf(*c).Field(i)
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.125)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(fault.Plan{}) {
			// Field-level coverage of the plan lives in the fault package
			// (TestPlanKeyCoversEveryField); here it is enough that the plan
			// participates in the key at all.
			v.Set(reflect.ValueOf(fault.MustParse("dram:0.125")))
			break
		}
		t.Fatalf("field %s has struct type %s; teach perturb (and CanonicalKey) about it", f.Name, v.Type())
	default:
		t.Fatalf("field %s has kind %s; teach perturb (and CanonicalKey) about it", f.Name, v.Kind())
	}
	return f.Name
}

// TestCanonicalKeyCoversEveryField mutates each Config field in turn and
// requires the key to change — so a newly added field that CanonicalKey
// forgets shows up as a test failure, not a silent cache collision.
func TestCanonicalKeyCoversEveryField(t *testing.T) {
	base := Default()
	ref := base.CanonicalKey()
	n := reflect.TypeOf(base).NumField()
	for i := 0; i < n; i++ {
		c := base
		name := perturb(t, &c, i)
		if got := c.CanonicalKey(); got == ref {
			t.Errorf("mutating %s did not change CanonicalKey — cache collision", name)
		}
	}
}

func TestCanonicalKeyDeterministic(t *testing.T) {
	a, b := Default(), Default()
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatal("identical configs produced different keys")
	}
}

func TestCanonicalKeyDistinguishesCloseFloats(t *testing.T) {
	a, b := Default(), Default()
	a.BypassProb = 0.4
	b.BypassProb = 0.4000000001
	if a.CanonicalKey() == b.CanonicalKey() {
		t.Fatal("nearby floats collided")
	}
}
