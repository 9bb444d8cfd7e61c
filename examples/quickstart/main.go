// Quickstart: run a Shadowsocks server and client in-process and fetch a
// page from a local HTTP server through the encrypted tunnel — the
// minimal end-to-end use of the library's public API.
package main

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"

	"sslab"
)

func main() {
	log.SetFlags(0)

	// A local web server stands in for the open internet.
	web, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(web, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "hello from the free internet")
	}))

	// The Shadowsocks server, as a user outside the censored network
	// would deploy it. The default profile is the hardened one that
	// resulted from the paper's responsible disclosure.
	srv, err := sslab.ListenServer("127.0.0.1:0", sslab.ServerConfig{
		Method:   "chacha20-ietf-poly1305",
		Password: "quickstart-secret",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("shadowsocks server on %s\n", srv.Addr())

	// The client, as a user inside the censored network would run it.
	cli, err := sslab.NewClient(sslab.ClientConfig{
		Server:   srv.Addr().String(),
		Method:   "chacha20-ietf-poly1305",
		Password: "quickstart-secret",
	})
	if err != nil {
		log.Fatal(err)
	}

	// Fetch through the tunnel: everything on the wire between client
	// and server is ciphertext indistinguishable from random bytes.
	conn, err := cli.Dial(web.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: example\r\nConnection: close\r\n\r\n")

	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("through the tunnel: %s\n", strings.TrimSpace(status))
	fmt.Printf("server stats: accepted=%d proxied=%d\n",
		srv.Stats.Accepted.Value(), srv.Stats.Proxied.Value())
}
