import re
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from ccmorph import morphometry as mo
from ccmorph.phantoms import (
    half_annulus_contour,
    half_annulus_landmarks,
    rectangle_contour,
    rectangle_landmarks,
)
from ccmorph.triangulate import triangulate


@pytest.fixture(scope="session")
def square_mesh():
    from ccmorph.contour import Polyline

    sq = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), closed=True)
    return triangulate(sq, 0.005)


@pytest.fixture(scope="session")
def rect_case():
    """Rectangle 20 x 3 phantom: contour, mesh, landmarks, midline, Laplace field."""
    contour = rectangle_contour()
    mesh = triangulate(contour, 0.25)
    lm = rectangle_landmarks()
    line, f = mo.intercallosal_line(mesh, lm, 100)
    return {"contour": contour, "mesh": mesh, "lm": lm, "line": line, "f": f}


@pytest.fixture(scope="session")
def annulus_case():
    """Half-annulus r 2..4 phantom at max_area 0.01 (FEM-grade resolution)."""
    contour = half_annulus_contour()
    mesh = triangulate(contour, 0.01)
    lm = half_annulus_landmarks()
    line, f = mo.intercallosal_line(mesh, lm, 100)
    return {"contour": contour, "mesh": mesh, "lm": lm, "line": line, "f": f}


def conformal_strip_thickness(d, height):
    """Analytic level-path length at distance d from a strip endpoint.

    Conformal map of the half-strip (width ``height``) with a +/-1 boundary
    jump at the endpoint: level curves of the conjugate potential are
    |sinh(pi z / height)| = const, giving length
    (height/pi) * Int_{-pi/2}^{pi/2} rho / |1 + rho^2 e^{2 i t}|^(1/2) dt
    with rho = sinh(pi d / height).
    """
    rho = np.sinh(np.pi * d / height)

    def integrand(t):
        return rho / abs(np.sqrt(1 + rho**2 * np.exp(2j * t)))

    val, _ = quad(integrand, -np.pi / 2, np.pi / 2, limit=200)
    return height / np.pi * val


@pytest.fixture(scope="session", name="conformal_strip_thickness")
def _conformal_strip_thickness():
    """The strip's analytic thickness oracle, shared by the thickness tests."""
    return conformal_strip_thickness


@pytest.fixture
def rss_file():
    """A function giving this process's file-backed resident bytes (``RssFile``); skips where
    ``/proc/self/status`` has no such field."""
    status = Path("/proc/self/status")
    if not status.exists() or "RssFile:" not in status.read_text():
        pytest.skip("no RssFile in /proc/self/status")
    return lambda: 1024 * int(re.search(r"RssFile:\s+(\d+) kB", status.read_text()).group(1))
