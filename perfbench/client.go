package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// newHTTPClient returns a client capped at two connections per host: the
// benchmark's whole load comes from at most two goroutines.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			MaxConnsPerHost:     2,
			DisableCompression:  true,
		},
	}
}

// call sends one request and reads the whole response body.
func call(hc *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// expectStatus sends one request and fails unless the status matches.
func expectStatus(hc *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	code, b, err := call(hc, method, url, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if code != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, url, code, want, b)
	}
	return b, nil
}

// sameBody fails when got differs from the oracle's bytes.
func sameBody(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: response differs from the library-path oracle (%d vs %d bytes)", what, len(got), len(want))
	}
	return nil
}
