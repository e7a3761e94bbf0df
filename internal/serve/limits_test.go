package serve

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestUnterminatedSourceIs400 sends a function body the source ends inside
// to every endpoint that compiles. The compiler used to index past its
// tokens on it, so the handler panicked and the connection dropped; the
// answer must be a typed compile error.
func TestUnterminatedSourceIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/run", "/v1/run/stream", "/v1/lint", "/v1/disasm"} {
		resp, raw := postJSON(t, ts.URL+path, RunRequest{Source: "int A(){"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400\n%s", path, resp.StatusCode, raw)
		}
		d := decodeError(t, raw)
		if d.Code != "compile_error" || !strings.Contains(d.Message, "unterminated function body") {
			t.Errorf("%s: error %+v, want the unterminated-body compile error", path, d)
		}
	}
}

// TestNestingAtBodyCap posts the largest body riscd accepts, a program of
// nothing but opening parentheses, to /v1/run and /v1/lint. The compiler's
// nesting limit answers it with a typed 400 instead of recursing half a
// million levels deep.
func TestNestingAtBodyCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const head, tail = `{"source":"int main() { putint(`, `1); return 0; }"}`
	body := head + strings.Repeat("(", maxBodyBytes-len(head)-len(tail)) + tail
	if len(body) != maxBodyBytes {
		t.Fatalf("body is %d bytes, want the %d-byte cap", len(body), maxBodyBytes)
	}
	for _, path := range []string{"/v1/run", "/v1/lint"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400\n%.300s", path, resp.StatusCode, raw)
		}
		d := decodeError(t, raw)
		if d.Code != "compile_error" || !strings.Contains(d.Message, "nesting deeper than") {
			t.Errorf("%s: error %+v, want the nesting-limit compile error", path, d)
		}
	}
}
