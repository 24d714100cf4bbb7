"""Thread-count smoke for e2e-serve's select loop.

Starts `e2e-serve --tcp 0 -j 1 --drainers 4`, holds four clients
connected (each greeted and answered a `ping`), and checks that the
server process runs exactly one thread (`Threads:` in
/proc/<pid>/status).  Usage: python3 test/serve_threads_smoke.py SERVE_EXE
"""

import re
import socket
import subprocess
import sys


def main():
    serve = sys.argv[1]
    proc = subprocess.Popen([serve, "--tcp", "0", "-j", "1", "--drainers", "4"],
                            stderr=subprocess.PIPE, text=True)
    clients = []
    try:
        line = proc.stderr.readline()
        m = re.search(r"listening on (\S+):(\d+)", line)
        if not m:
            sys.exit("no listening line from e2e-serve: %r" % line)
        port = int(m.group(2))
        for _ in range(4):
            s = socket.create_connection(("127.0.0.1", port), timeout=10)
            f = s.makefile("rw", newline="\n")
            if not f.readline().startswith("e2e-serve/"):
                sys.exit("client not greeted")
            f.write("ping\n")
            f.flush()
            if not f.readline().startswith("pong "):
                sys.exit("ping not answered")
            clients.append((s, f))
        with open("/proc/%d/status" % proc.pid) as status:
            threads = [l.split()[1] for l in status if l.startswith("Threads:")]
        print("e2e-serve with 4 clients and 4 stripes: Threads: %s" % threads[0])
        if threads != ["1"]:
            sys.exit("expected 1 thread, got %s" % threads)
    finally:
        for s, f in clients:
            s.close()
        proc.kill()
        proc.wait()


if __name__ == "__main__":
    main()
