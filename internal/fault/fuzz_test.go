package fault

import (
	"reflect"
	"testing"
)

// FuzzParsePlan checks that every plan ParsePlan accepts survives the
// trip through Plan.String, the form every report's faults line prints:
// parsing the rendered string must give back the same plan.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{
		"stall=0-1@0+.1", // a sub-ns duration String would print as +0ns
		"ber=1e-7,down=0-1@10us",
		"ber=1e-6,down=0-1@10us,stall=2-3@5us+20us,degrade=1-2@0*0.5",
		"ber=1e-6, down=2-3@1ms, stall=0-1@50us+10us, degrade=4-5@0*0.5",
		"down=0-1@1.001us",
		"down=0-1@250",
		"stall=0-1@1e30s+1ns",
		"ber=0",
	} {
		f.Add(s, int64(1))
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		p, err := ParsePlan(spec, seed)
		if err != nil {
			return
		}
		s := p.String()
		if !p.Active() {
			if s != "none" {
				t.Fatalf("inactive plan %q renders as %q", spec, s)
			}
			return
		}
		q, err := ParsePlan(s, seed)
		if err != nil {
			t.Fatalf("ParsePlan(%q) rendered %q, which does not parse: %v", spec, s, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("ParsePlan(%q) = %+v, but its rendering %q parses to %+v", spec, p, s, q)
		}
	})
}
