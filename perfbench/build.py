#!/usr/bin/env python3
"""Builds the hypothesis-test benchmark from source.

The program (``src/main/scala`` at the repository root) and the benchmark
(``perfbench/src/main/scala``) compile together, with the Scala compiler and
libraries that ship in Spark's ``jars`` directory, into ``perfbench/.build``.
A build is skipped when no source changed since the last one.

    python3 perfbench/build.py          # build if needed
    python3 perfbench/build.py test     # build, then run the benchmark's tests

The tests need scalatest, which is read from the local coursier cache.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = BENCH / ".build"
CLASSES = BUILD / "classes"
TEST_CLASSES = BUILD / "test-classes"
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
BENCH_SRC = BENCH / "src" / "main" / "scala"
TEST_SRC = BENCH / "src" / "test" / "scala"
LOG4J = BENCH / "resources" / "log4j2.properties"

# The --add-opens flags spark-submit passes on JDK 17.
ADD_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io",
        "java.net", "java.nio", "java.util", "java.util.concurrent",
        "java.util.concurrent.atomic", "jdk.internal.ref", "sun.nio.ch",
        "sun.nio.cs", "sun.security.action", "sun.util.calendar")
]


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            raise BuildError("Spark not found: set SPARK_HOME")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError(f"no Scala compiler among Spark's jars in {jars}")
    return jars


def scala_sources(*dirs: Path) -> list:
    for d in dirs:
        if not d.is_dir():
            raise BuildError(f"source directory {d} is missing")
    return sorted(p for d in dirs for p in d.rglob("*.scala"))


def digest(files) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def scalac(sources, out: Path, classpath: str) -> None:
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx1g", "-cp", str(spark_jars() / "*"),
           "scala.tools.nsc.Main", "-nowarn", "-d", str(tmp),
           "-classpath", classpath, *map(str, sources)]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("compilation failed:\n" + res.stdout)
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)


def compiled(sources, out: Path, classpath: str) -> None:
    """Compiles `sources` into `out` unless its stamp matches their digest."""
    stamp = out.with_name(out.name + ".stamp")
    want = digest(sources)
    if out.is_dir() and stamp.is_file() and stamp.read_text() == want:
        return
    print(f"[perfbench] compiling {len(sources)} sources into {out.relative_to(ROOT)}",
          file=sys.stderr)
    stamp.unlink(missing_ok=True)
    scalac(sources, out, classpath)
    stamp.write_text(want)


def ensure_built() -> str:
    """Builds the program and benchmark if needed; returns the run classpath."""
    jars = str(spark_jars() / "*")
    compiled(scala_sources(PROGRAM_SRC, BENCH_SRC), CLASSES, jars)
    return os.pathsep.join([str(CLASSES), jars])


def java_command(classpath: str, heap: str = "3g") -> list:
    """The JVM command line that runs a class of the benchmark."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # -UsePerfData: no hsperfdata file outside the checkout.
    return ["java", "-XX:-UsePerfData", f"-Xmx{heap}", *ADD_OPENS,
            "-Djdk.reflect.useDirectMethodHandleAccessor=false",
            f"-Dlog4j2.configurationFile={LOG4J}",
            f"-Djava.io.tmpdir={tmp}",
            f"-Dspark.sql.warehouse.dir={tmp / 'warehouse'}",
            "-Dspark.driver.host=127.0.0.1",
            "-cp", classpath]


def scalatest_jars() -> list:
    cache = Path(os.environ.get("COURSIER_CACHE", Path.home() / ".cache" / "coursier"))
    jars = [j for pattern in ("**/org/scalatest/*_2.13/3.2.19/*.jar",
                              "**/org/scalatest/scalatest-compatible/3.2.19/*.jar",
                              "**/org/scalactic/scalactic_2.13/3.2.19/*.jar")
            for j in cache.glob(pattern) if not j.name.endswith("-sources.jar")]
    if not jars:
        raise BuildError(f"scalatest 3.2.19 not found under {cache}")
    return sorted(jars)


def run_tests() -> int:
    classpath = os.pathsep.join([ensure_built(), *map(str, scalatest_jars())])
    compiled(scala_sources(TEST_SRC), TEST_CLASSES, classpath)
    runner = [*java_command(os.pathsep.join([str(TEST_CLASSES), classpath])),
              "org.scalatest.tools.Runner", "-oD", "-R", str(TEST_CLASSES)]
    scala_rc = subprocess.run(runner, cwd=ROOT).returncode
    suite = unittest.defaultTestLoader.discover(str(BENCH / "tests"), top_level_dir=str(BENCH))
    py_ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    return 0 if scala_rc == 0 and py_ok else 1


def main(argv) -> int:
    try:
        if argv[1:] == ["test"]:
            return run_tests()
        if argv[1:]:
            print(__doc__, file=sys.stderr)
            return 2
        ensure_built()
        return 0
    except BuildError as e:
        print(f"[perfbench] build error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
