package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// RateLimitBench is the BENCH_serve.json block recording the
// rate-limit scenario: a second ldserve booted with -rate/-burst and
// hammered past its budget must answer the overflow with measured
// HTTP 429s, every one carrying a usable Retry-After, and must accept
// a request again once the advertised wait has passed.
type RateLimitBench struct {
	// RPS and Burst are the server's token-bucket parameters.
	RPS float64 `json:"rps"`
	// Burst is documented with RPS above.
	Burst int `json:"burst"`
	// Requests is how many probes the scenario fired.
	Requests int `json:"requests"`
	// Limited counts the 429 responses among them.
	Limited int `json:"limited"`
	// RetryAfterMissing counts 429s whose Retry-After header was
	// absent or unparseable — the SLO requires zero.
	RetryAfterMissing int `json:"retry_after_missing"`
	// MaxRetryAfterSec is the largest advertised wait, in seconds.
	MaxRetryAfterSec int `json:"max_retry_after_sec"`
	// RecoveredAfterWait reports whether a request succeeded after
	// honoring the advertised wait.
	RecoveredAfterWait bool `json:"recovered_after_wait"`
}

// runRateScenario boots a rate-limited ldserve profile on its own
// directories, fires sequential probes fast enough to drain the burst
// bucket, and measures the overflow behavior. The verdicts land in
// BENCH_serve.json as SLO checks; a server that never limits, omits
// Retry-After, or stays limited after the advertised wait fails here
// directly.
func runRateScenario(bin, apiKey string, rps float64, burst int) RateLimitBench {
	addr := freeAddr()
	proc := startServer(bin, addr, tempDir("loadcheck-rate-*"), apiKey,
		"-rate", fmt.Sprintf("%g", rps), "-burst", strconv.Itoa(burst))
	defer stopServer(proc)

	doc := RateLimitBench{RPS: rps, Burst: burst}
	httpc := &http.Client{Timeout: 10 * time.Second}
	probe := func() (status int, retryAfter string) {
		req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/v1/datasets", nil)
		if err != nil {
			fatalf("rate probe: %v", err)
		}
		req.Header.Set("Authorization", "Bearer "+apiKey)
		resp, err := httpc.Do(req)
		if err != nil {
			fatalf("rate probe: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	// Back-to-back probes arrive far above any sane -rate, so the
	// bucket drains after ~burst requests and everything past it must
	// be a 429 with Retry-After.
	total := burst + 50
	for i := 0; i < total; i++ {
		status, retryAfter := probe()
		doc.Requests++
		switch status {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			doc.Limited++
			sec, err := strconv.Atoi(retryAfter)
			if err != nil || sec < 1 {
				doc.RetryAfterMissing++
			} else if sec > doc.MaxRetryAfterSec {
				doc.MaxRetryAfterSec = sec
			}
		default:
			fatalf("rate probe %d: unexpected HTTP %d", i, status)
		}
	}
	if doc.Limited == 0 {
		fatalf("rate scenario: %d probes against rps=%g burst=%d never saw a 429", total, rps, burst)
	}
	if doc.RetryAfterMissing > 0 {
		fatalf("rate scenario: %d of %d 429s lacked a usable Retry-After", doc.RetryAfterMissing, doc.Limited)
	}

	// Honoring the advertised wait must buy the next request through.
	time.Sleep(time.Duration(doc.MaxRetryAfterSec)*time.Second + 200*time.Millisecond)
	status, _ := probe()
	doc.Requests++
	doc.RecoveredAfterWait = status == http.StatusOK
	if !doc.RecoveredAfterWait {
		fatalf("rate scenario: HTTP %d after waiting the advertised %ds", status, doc.MaxRetryAfterSec)
	}
	fmt.Printf("loadcheck: rate scenario — %d/%d probes limited (rps=%g burst=%d), max Retry-After %ds, recovered\n",
		doc.Limited, doc.Requests, rps, burst, doc.MaxRetryAfterSec)
	return doc
}
