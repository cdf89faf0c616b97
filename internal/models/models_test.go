package models

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// TestServiceRefusesDeltaAxisOverADelta: a budget axis over a spec that
// already carries a delta would replace that delta under a cell name
// that is not a spec ("tage@+1@+2" measuring tage@+2), so a coordinator
// resolving through the registry answers such a submission with 400.
func TestServiceRefusesDeltaAxisOverADelta(t *testing.T) {
	svc := &harness.Service{Queue: harness.NewLeaseQueue(0, 0, nil), Resolve: Resolve}
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	// Without a worker an accepted sweep would stream forever; the
	// timeout turns that into a failure.
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(srv.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"models":["tage@+1"],"traces":["INT01"],"branches":[1000],"delta_logs":[2]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "already carries a storage delta") {
		t.Fatalf("delta-on-delta submission: %d %s", resp.StatusCode, body)
	}
}
