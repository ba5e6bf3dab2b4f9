package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestTCPExperimentRowsMatchBaseline is the hard drift gate for the
// experiments that carry TCP bulk transfers: it regenerates the telemetry,
// loss and rogue rows and requires them to equal the rows of the committed
// BENCH_<experiment>.json. Only rows are compared; the header's wall clock,
// events/sec and allocs/event vary run to run. A change that moves these
// rows on purpose regenerates the file with `plexus-bench -exp <name> -json`
// and says which rows moved and why.
func TestTCPExperimentRowsMatchBaseline(t *testing.T) {
	for _, exp := range []struct {
		name string
		run  func() (any, error)
	}{
		{"telemetry", func() (any, error) { return Telemetry() }},
		{"loss", func() (any, error) { return Loss(DefaultLossRates()) }},
		{"rogue", func() (any, error) { return Rogue(DefaultRogueCounts()) }},
	} {
		t.Run(exp.name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+exp.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var committed struct {
				Rows []any `json:"rows"`
			}
			if err := json.Unmarshal(raw, &committed); err != nil {
				t.Fatal(err)
			}
			rows, err := exp.run()
			if err != nil {
				t.Fatal(err)
			}
			// Round-trip through JSON so both sides hold the values the
			// -json report would write.
			enc, err := json.Marshal(rows)
			if err != nil {
				t.Fatal(err)
			}
			var got []any
			if err := json.Unmarshal(enc, &got); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(committed.Rows) {
				t.Fatalf("%d rows, committed BENCH_%s.json has %d", len(got), exp.name, len(committed.Rows))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], committed.Rows[i]) {
					g, _ := json.Marshal(got[i])
					w, _ := json.Marshal(committed.Rows[i])
					t.Errorf("row %d drifted from BENCH_%s.json:\n got  %s\n want %s", i, exp.name, g, w)
				}
			}
		})
	}
}
