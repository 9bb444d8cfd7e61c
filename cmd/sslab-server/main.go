// Command sslab-server runs a Shadowsocks proxy server that can emulate
// any of the implementation behaviours the paper studied — or the
// hardened post-disclosure profile (the default).
//
// Usage:
//
//	sslab-server -listen :8388 -method chacha20-ietf-poly1305 -password SECRET \
//	    [-profile hardened|libev-old|libev-new|outline-1.0.6|outline-1.0.7|outline-1.1.0] \
//	    [-timeout 60s] [-verbose]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"sslab/internal/reaction"
	"sslab/internal/sscrypto"
	"sslab/internal/ssserver"
)

var profiles = map[string]reaction.Profile{
	"libev-old":     reaction.LibevOld,
	"libev-new":     reaction.LibevNew,
	"outline-1.0.6": reaction.Outline106,
	"outline-1.0.7": reaction.Outline107,
	"outline-1.1.0": reaction.Outline110,
	"ss-python":     reaction.SSPython,
	"ssr":           reaction.SSR,
	"hardened":      reaction.Hardened,
}

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("sslab-server: ")
	var (
		listen   = flag.String("listen", ":8388", "listen address")
		method   = flag.String("method", "chacha20-ietf-poly1305", "cipher method ("+strings.Join(sscrypto.Methods(), ", ")+")")
		password = flag.String("password", "", "shared password (required)")
		profile  = flag.String("profile", "hardened", "behaviour profile: "+profileNames())
		timeout  = flag.Duration("timeout", 60*time.Second, "handshake timeout: how long to wait for a connection's first protocol data")
		verbose  = flag.Bool("verbose", false, "log connection events")
		udp      = flag.Bool("udp", false, "also relay UDP on the same port")
	)
	flag.Parse()
	if *password == "" {
		fmt.Fprintln(os.Stderr, "sslab-server: -password is required")
		flag.Usage()
		os.Exit(2)
	}
	p, ok := profiles[*profile]
	if !ok {
		log.Fatalf("unknown profile %q (want one of %s)", *profile, profileNames())
	}

	cfg := ssserver.Config{
		Method: *method, Password: *password, Profile: p,
		HandshakeTimeout: *timeout,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	srv, err := ssserver.Listen(*listen, cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (%s, %s %s)", srv.Addr(), *method, p.Name, p.Versions)
	if *udp {
		pc, err := net.ListenPacket("udp", *listen)
		if err != nil {
			log.Fatalf("udp listen: %v", err)
		}
		defer pc.Close()
		go srv.ServeUDP(pc)
		log.Printf("relaying UDP on %s", pc.LocalAddr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Printf("shutting down: accepted=%d proxied=%d auth-errors=%d replays-blocked=%d",
		srv.Stats.Accepted.Value(), srv.Stats.Proxied.Value(),
		srv.Stats.AuthErrors.Value(), srv.Stats.ReplaysBlocked.Value())
	srv.Close()
}

func profileNames() string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
