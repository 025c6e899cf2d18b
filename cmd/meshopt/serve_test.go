package main

import (
	"net/http"
	"testing"
)

func TestServeHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != serveReadHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, serveReadHeaderTimeout)
	}
	if hs.IdleTimeout != serveIdleTimeout || hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", hs.IdleTimeout, serveIdleTimeout)
	}
	// GET .../records streams a live job; a write deadline would cut it.
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none", hs.WriteTimeout)
	}
}
