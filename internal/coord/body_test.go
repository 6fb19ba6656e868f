package coord_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/tagspin/tagspin/internal/client"
	"github.com/tagspin/tagspin/internal/coord"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/locsrv"
	"github.com/tagspin/tagspin/internal/registry"
)

// TestBodyRuleBothTiers sends the same bodies to a replica and to a
// coordinator in front of it: both tiers must answer each body with the
// same status. The replica's collector fails at once, so a body that passes
// validation answers 502 (locate) or 200 with per-item errors (batch)
// without touching a network, and trailing data after the JSON value is a
// 400 on both tiers.
func TestBodyRuleBothTiers(t *testing.T) {
	srv, err := locsrv.New(locsrv.Config{
		Registry:    registry.New(),
		MaxInFlight: -1,
		Collect: func(context.Context, string, client.Config) (core.Observations, error) {
			return nil, errors.New("reader offline")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(srv.Handler())
	t.Cleanup(replica.Close)
	_, front := startCoordinator(t, coord.Config{Replicas: []string{hostPort(replica)}})

	const item = `{"readerAddr":"a:1"}`
	batch := `{"requests":[` + item + `]}`
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"locate", "/v1/locate", item, http.StatusBadGateway},
		{"locate/trailing_space", "/v1/locate", item + " \n\t", http.StatusBadGateway},
		{"locate/trailing_value", "/v1/locate", item + ` {}`, http.StatusBadRequest},
		{"locate/trailing_garbage", "/v1/locate", item + `garbage`, http.StatusBadRequest},
		{"locate/two_values", "/v1/locate", item + item, http.StatusBadRequest},
		{"locate/truncated", "/v1/locate", item[:len(item)-1], http.StatusBadRequest},
		{"locate/too_long", "/v1/locate", strings.Repeat(" ", locsrv.MaxBodyBytes) + item, http.StatusBadRequest},
		{"batch", "/v1/locate-batch", batch, http.StatusOK},
		{"batch/trailing_space", "/v1/locate-batch", batch + "\n", http.StatusOK},
		{"batch/trailing_value", "/v1/locate-batch", batch + ` {}`, http.StatusBadRequest},
		{"batch/trailing_garbage", "/v1/locate-batch", batch + `garbage`, http.StatusBadRequest},
		{"batch/truncated", "/v1/locate-batch", batch[:len(batch)-1], http.StatusBadRequest},
		{"batch/too_long", "/v1/locate-batch", strings.Repeat(" ", locsrv.MaxBodyBytes) + batch, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, tier := range []struct{ name, url string }{{"replica", replica.URL}, {"coordinator", front.URL}} {
				resp, err := http.Post(tier.url+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != tc.want {
					t.Errorf("%s: status = %d, want %d", tier.name, resp.StatusCode, tc.want)
				}
			}
		})
	}
}
