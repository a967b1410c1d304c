package main

// The sweep spec's wire contract: which JSON keys exist, how the enums
// are spelled, what an older daemon's persisted job still means, and the
// bound on sizes a tenant may ask for.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"wormhole/internal/traffic"
)

// postRaw submits a literal JSON body and returns the status code and
// the decoded error object (empty on a 202).
func postRaw(t *testing.T, base, body string) (int, map[string]string) {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]string{}
	if resp.StatusCode != http.StatusAccepted {
		json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck
	}
	return resp.StatusCode, out
}

// plantJob writes a job's files (job.json at least) into a fresh state
// dir, as a previous daemon process would have left them.
func plantJob(t *testing.T, id string, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs", id)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(jobDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// wireKeys lists the JSON keys a struct type accepts, flattening embedded
// structs the way encoding/json does. An untagged exported field shows up
// under its Go name, which is how a new traffic.Config field without a
// tag fails TestSweepWireNames instead of silently becoming settable.
func wireKeys(t reflect.Type) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		name, _, _ := strings.Cut(tag, ",")
		switch {
		case tag == "-" || !f.IsExported():
		case f.Anonymous && name == "" && f.Type.Kind() == reflect.Struct:
			keys = append(keys, wireKeys(f.Type)...)
		case name == "":
			keys = append(keys, f.Name)
		default:
			keys = append(keys, name)
		}
	}
	return keys
}

// TestSweepWireNames pins the sweep spec's JSON keys. SweepSpec embeds
// traffic.Config, so renaming a tag there renames a wire field; the
// frozen mirror in benchmark/daemon.go is otherwise the only thing that
// would notice. It also loads a job.json the parent build wrote — old
// enum spellings and all — and requires the CSV that build served.
func TestSweepWireNames(t *testing.T) {
	want := []string{
		"arbitration", "dims", "drain", "faults", "hotspot_count", "hotspot_fraction",
		"lane_depth", "max_backlog", "measure", "message_length", "off_mean", "on_mean",
		"pattern", "process", "rates", "restricted_bandwidth", "retry_backoff",
		"retry_backoff_cap", "retry_max_attempts", "seed", "shared_pool", "size",
		"topology", "virtual_channels", "warmup", "window",
	}
	got := wireKeys(reflect.TypeOf(SweepSpec{}))
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SweepSpec accepts the JSON keys\n%q\nwant\n%q", got, want)
	}

	job, err := os.ReadFile(filepath.Join("testdata", "parent_job.json"))
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(filepath.Join("testdata", "parent_job.csv"))
	if err != nil {
		t.Fatal(err)
	}
	srv, m := startTestServer(t, plantJob(t, "j000001", map[string]string{"job.json": string(job)}), 0)
	defer m.Shutdown()
	st := waitState(t, srv, "j000001", stateDone)
	if got := fetch(t, srv.URL+"/api/v1/jobs/j000001/result", http.StatusOK); !bytes.Equal(got, wantCSV) {
		t.Fatalf("the parent build's job rendered\n%s\nwant the CSV that build served\n%s", got, wantCSV)
	}
	// What it meant, in the engine's terms.
	sw := st.Spec.Sweep
	if sw.Process != traffic.OnOff || sw.Pattern != traffic.BitReverse || len(sw.Faults) != 4 || sw.RetryBackoffCap != 64 {
		t.Fatalf("the parent build's spec decoded to %+v", sw)
	}
	// And it is re-persisted in the canonical spellings.
	blob, err := os.ReadFile(filepath.Join(m.jobDir("j000001"), "job.json"))
	if err != nil || !bytes.Contains(blob, []byte(`"process": "on-off"`)) || !bytes.Contains(blob, []byte(`"pattern": "bit-reverse"`)) {
		t.Fatalf("re-persisted job.json (%v):\n%s", err, blob)
	}
}

// TestUnknownEnumIs400: an unknown enum spelling is refused at
// submission with a message naming the value and what is accepted, in
// either spelling generation's terms.
func TestUnknownEnumIs400(t *testing.T) {
	srv, m := startTestServer(t, t.TempDir(), 0)
	defer m.Shutdown()
	const body = `{"type":"sweep","sweep":{"topology":"butterfly","size":8,"virtual_channels":2,
		"message_length":4,"rates":[0.02],"measure":160,%s}}`
	for field, accepted := range map[string]string{
		"arbitration": "by-id, random, age",
		"process":     "bernoulli, poisson, on-off",
		"pattern":     "uniform, transpose, bit-reverse, hotspot",
	} {
		code, msg := postRaw(t, srv.URL, strings.Replace(body, "%s", `"`+field+`":"fifo"`, 1))
		if code != http.StatusBadRequest || msg["error"] != "bad_request" ||
			!strings.Contains(msg["message"], `"fifo"`) || !strings.Contains(msg["message"], accepted) {
			t.Errorf("%s \"fifo\": %d %v; want a 400 naming the value and %q", field, code, msg, accepted)
		}
	}
	// Both spelling generations are accepted.
	for _, enums := range []string{
		`"arbitration":"byid","process":"onoff","pattern":"bitreverse"`,
		`"arbitration":"by-id","process":"on-off","pattern":"bit-reverse"`,
		`"arbitration":"","process":"","pattern":""`,
	} {
		if code, msg := postRaw(t, srv.URL, strings.Replace(body, "%s", enums, 1)); code != http.StatusAccepted {
			t.Errorf("%s: %d %v, want 202", enums, code, msg)
		}
	}
}

// TestOversizedSpecIs400: sizes come from outside, so they are bounded
// (traffic.MaxEndpoints, traffic.MaxMessageLength, traffic.MaxWindows,
// vcsim.MaxHorizon) before anything is allocated in proportion to them.
// Each of these bodies used to reach the allocation or the worker: the
// oversized networks died with a fatal, unrecoverable out-of-memory
// error inside the POST handler; the experiment, the 2·10⁹-flit message
// and the 2·10⁹ one-step windows were persisted, killed their worker
// the same way, and were re-queued by every restart; the window sum
// that wraps negative was accepted and failed in the worker.
func TestOversizedSpecIs400(t *testing.T) {
	srv, m := startTestServer(t, t.TempDir(), 0)
	defer m.Shutdown()
	const sweep = `{"type":"sweep","sweep":{"topology":%s,"virtual_channels":2,"message_length":4,"rates":[0.02],"measure":160}}`
	const run = `{"type":"sweep","sweep":{"topology":"butterfly","size":16,"virtual_channels":2,"lane_depth":2,%s,"rates":[0.1]}}`
	for name, body := range map[string]string{
		"message length":  strings.Replace(run, "%s", `"message_length":2000000000,"measure":100`, 1),
		"windows wrap":    strings.Replace(run, "%s", `"message_length":4,"warmup":4611686018427387904,"measure":4611686018427387904`, 1),
		"window count":    strings.Replace(run, "%s", `"message_length":4,"window":1,"measure":2000000000`, 1),
		"butterfly size":  strings.Replace(sweep, "%s", `"butterfly","size":268435456`, 1),
		"one huge dim":    strings.Replace(sweep, "%s", `"mesh","dims":[268435456]`, 1),
		"dims product":    strings.Replace(sweep, "%s", `"torus","dims":[4096,4096]`, 1),
		"dims overflow":   strings.Replace(sweep, "%s", `"mesh","dims":[4294967296,4294967296]`, 1),
		"many small dims": strings.Replace(sweep, "%s", `"mesh","dims":[`+strings.Repeat("2,", 40)+`2]`, 1),
		"odd butterfly":   strings.Replace(sweep, "%s", `"butterfly","size":12`, 1), // NewButterfly panics on it
		"hotspot count": strings.Replace(sweep, "%s",
			`"mesh","dims":[4,4],"pattern":"hotspot","hotspot_count":4611686018427387904,"hotspot_fraction":1`, 1),
		"T15 scale":       `{"type":"experiment","experiment":{"id":"T15","scale":1073741824}}`,
		"T14 quick scale": `{"type":"experiment","experiment":{"id":"T14","scale":1073741824,"quick":true}}`,
		"trials":          `{"type":"experiment","experiment":{"id":"T7","trials":1099511627776}}`,
	} {
		if n := allocated(func() {
			if code, msg := postRaw(t, srv.URL, body); code != http.StatusBadRequest || msg["error"] != "bad_request" {
				t.Errorf("%s: %d %v, want 400 bad_request", name, code, msg)
			}
		}); n > 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes, want < 1 MiB", name, n)
		}
		fetch(t, srv.URL+"/healthz", http.StatusOK)
	}
	// Just past the bound, straight at the builder a recovered job uses.
	if _, err := (&SweepSpec{Topology: "butterfly", Size: 2 * traffic.MaxEndpoints}).network(); err == nil {
		t.Error("a butterfly twice the bound was built")
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Errorf("rejected submissions left %d job(s) behind", len(jobs))
	}
}

// TestPersistedOversizedSpecFailsJob: an oversized spec a daemon without
// the bound persisted must fail its job on recovery — not kill the
// process, which startup recovery would repeat on every restart.
func TestPersistedOversizedSpecFailsJob(t *testing.T) {
	for name, tc := range map[string]struct{ typ, spec, bound string }{
		"network": {"sweep", `{"type":"sweep","sweep":{"topology":"butterfly","size":268435456,
			"virtual_channels":2,"message_length":4,"rates":[0.02],"measure":160}}`, "65536"},
		"message length": {"sweep", `{"type":"sweep","sweep":{"topology":"butterfly","size":16,
			"virtual_channels":2,"lane_depth":2,"message_length":2000000000,"rates":[0.1],"measure":100}}`, "4096"},
		"window count": {"sweep", `{"type":"sweep","sweep":{"topology":"butterfly","size":16,
			"virtual_channels":2,"message_length":4,"window":1,"rates":[0.1],"measure":2000000000}}`, "65536"},
		"hotspot count": {"sweep", `{"type":"sweep","sweep":{"topology":"mesh","dims":[4,4],"pattern":"hotspot",
			"hotspot_count":4611686018427387904,"hotspot_fraction":1,"virtual_channels":2,"message_length":4,"rates":[0.02],"measure":160}}`, "count 16"},
		"experiment": {"experiment", `{"type":"experiment","experiment":{"id":"T15","scale":1073741824}}`, "65536"},
		"trials":     {"experiment", `{"type":"experiment","experiment":{"id":"T7","trials":1099511627776}}`, "1000"},
	} {
		dir := plantJob(t, "j000000", map[string]string{
			"job.json": `{"id":"j000000","type":"` + tc.typ + `","state":"running","created_unix":1,"spec":` + tc.spec + `}`})
		srv, m := startTestServer(t, dir, 0)
		st := waitState(t, srv, "j000000", stateFailed)
		if !strings.Contains(st.Error, tc.bound) || strings.Contains(st.Error, "panicked") {
			t.Errorf("%s: job error %q, want the size bound's message", name, st.Error)
		}
		fetch(t, srv.URL+"/healthz", http.StatusOK)
		m.Shutdown()
	}
}
