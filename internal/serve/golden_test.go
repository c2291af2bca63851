package serve

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
)

// The serve golden locks the wire behaviour of both POST routes on a fixed
// sequential request set: status codes, JSON bodies (wall-clock fields
// blanked) and the final /metrics counters. Regenerate with
//
//	go test ./internal/serve -run TestGoldenServe -update
var update = flag.Bool("update", false, "rewrite the serve golden in testdata/")

var (
	elapsedRE = regexp.MustCompile(`"elapsed_ms": [-+0-9.eE]+`)
	traceRE   = regexp.MustCompile(`"trace": "(?:[^"\\]|\\.)*"`)
	latencyRE = regexp.MustCompile(`"(p50|p90|p99|max)_ms": [-+0-9.eE]+`)
)

// blankClock replaces the scheduling-dependent fields of a response body.
func blankClock(body string) string {
	body = elapsedRE.ReplaceAllString(body, `"elapsed_ms": 0`)
	body = traceRE.ReplaceAllString(body, `"trace": "-"`)
	return latencyRE.ReplaceAllString(body, `"${1}_ms": 0`)
}

// waitForStop holds a solver hook until the request's token has fired, so
// the deadline binds deterministically, machine speed aside.
func waitForStop(cfg core.Config) {
	for !cfg.Stop.Stopped() {
		time.Sleep(time.Millisecond)
	}
}

func TestGoldenServe(t *testing.T) {
	s := New(testConfig())
	defer drainNow(t, s)
	realFlow, realECO := s.runFlow, s.runECO

	ff, x, y := ecoProbe(t, 60, 8, 1)
	job := `{"circuit":{"cells":60,"flipflops":8,"seed":1},"rings":4,"iters":2,"telemetry":true}`
	ecoBody := fmt.Sprintf(
		`{"circuit":{"cells":60,"flipflops":8,"seed":1},"rings":4,"iters":2,"telemetry":true,"deltas":[{"op":"move_ff","cell":%d,"x":%.4f,"y":%.4f}]}`,
		ff, x, y)
	withField := func(body, field string) string {
		return strings.TrimSuffix(body, "}") + "," + field + "}"
	}

	var out strings.Builder
	record := func(label, path, body string) {
		rr := httptest.NewRecorder()
		method := http.MethodPost
		if body == "" {
			method = http.MethodGet
		}
		s.ServeHTTP(rr, httptest.NewRequest(method, path, strings.NewReader(body)))
		fmt.Fprintf(&out, "## %s\n%s %s\nstatus %d\n%s\n", label, method, path, rr.Code, blankClock(rr.Body.String()))
	}

	record("job", "/v1/jobs", job)
	record("eco", "/v1/eco", ecoBody)
	record("job repeat (template hit)", "/v1/jobs", job)
	record("eco repeat (base hit)", "/v1/eco", ecoBody)
	record("job bad request", "/v1/jobs", `{"circuit":{"cells":60},"typo_field":1}`)
	record("eco bad request", "/v1/eco", `{"circuit":{"cells":60,"flipflops":8,"seed":1},"deltas":[]}`)
	record("eco invalid delta", "/v1/eco",
		`{"circuit":{"cells":60,"flipflops":8,"seed":1},"rings":4,"iters":2,"deltas":[{"op":"move_ff","cell":1000000,"x":1,"y":1}]}`)

	s.runFlow = func(c *netlist.Circuit, cfg core.Config) (*core.Result, error) {
		waitForStop(cfg)
		return realFlow(c, cfg)
	}
	s.runECO = func(st *eco.State, deltas []eco.Delta, cfg core.Config, opt eco.Options) (*core.ECOResult, error) {
		waitForStop(cfg)
		return realECO(st, deltas, cfg, opt)
	}
	record("job strict deadline", "/v1/jobs", withField(job, `"deadline_ms":1,"strict":true`))
	record("eco strict deadline", "/v1/eco", withField(ecoBody, `"deadline_ms":1,"strict":true`))
	record("job deadline degraded", "/v1/jobs", withField(job, `"deadline_ms":1`))
	record("eco deadline degraded", "/v1/eco", withField(ecoBody, `"deadline_ms":1`))

	s.runFlow = func(*netlist.Circuit, core.Config) (*core.Result, error) { panic("flow invariant broken") }
	s.runECO = func(*eco.State, []eco.Delta, core.Config, eco.Options) (*core.ECOResult, error) {
		panic("eco invariant broken")
	}
	record("job panic", "/v1/jobs", job)
	record("eco panic", "/v1/eco", ecoBody)

	record("metrics", "/metrics", "")

	path := filepath.Join("testdata", "serve.golden")
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("serve golden mismatch (run with -update to inspect)\n--- got ---\n%s", got)
	}
}
